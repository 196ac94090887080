import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from cvmbqc import cli, gates, optimizer
from cvmbqc import lattice as lat


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


def test_noise_curve_basic(capsys, tmp_path):
    code, out, _ = run_cli(["noise-curve", "--lattice", "DBSL", "QRL", "--gate", "I",
                            "--db-min", "10", "--db-max", "20", "--db-step", "5"], capsys)
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["lattice", "gate", "squeezing_db", "quadrature", "noise_variance_db"]
    by_key = {(r[0], r[1], r[2], r[3]): float(r[4]) for r in rows}
    # reference rows: resource squeezing is -db exactly
    assert by_key[("reference", "resource", "15", "p")] == pytest.approx(-15.0)
    # QRL identity p-noise equals the effective squeezing exactly (N_p = 1)
    r = lat.db_to_r(15.0)
    eff_db = 10 * math.log10(lat.effective_epsilon(r))
    assert by_key[("QRL", "I", "15", "p")] == pytest.approx(eff_db, abs=1e-7)
    assert by_key[("reference", "effective", "15", "p")] == pytest.approx(eff_db, abs=1e-7)
    # DBSL identity noise approaches twice the effective squeezing at 20 dB
    r20 = lat.db_to_r(20.0)
    eff20 = 10 * math.log10(lat.effective_epsilon(r20))
    assert by_key[("DBSL", "I", "20", "x")] == pytest.approx(eff20 + 10 * math.log10(2), abs=0.05)


def test_error_curve_single_mode(capsys):
    code, out, _ = run_cli(["error-curve", "--lattice", "QRL", "--gate", "I", "F",
                            "--db-min", "5", "--db-max", "15", "--db-step", "5"], capsys)
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["lattice", "gate", "squeezing_db", "perr"]
    perr = {(r[0], r[1], float(r[2])): float(r[3]) for r in rows}
    assert perr[("QRL", "I", 5.0)] > perr[("QRL", "I", 15.0)]
    assert perr[("QRL", "F", 10.0)] > perr[("QRL", "I", 10.0)]
    assert ("baseline", "FFCZ", 10.0) in perr


def test_error_curve_cache_miss_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    code, _, err = run_cli(["error-curve", "--lattice", "DBSL", "--gate", "FFCZ",
                            "--db-min", "10", "--db-max", "10", "--db-step", "1"], capsys)
    assert code == cli.EXIT_CACHE
    assert "cache miss" in err


def _one_row_table(**change):
    row = {"lattice": "DBSL", "squeezing_db": 10.0, "angles": [0.0] * 10, **change}
    return json.dumps({"version": 1, "entries": [row]})


MALFORMED_TABLES = {
    "truncated": '{\n "version": 1,\n "entries": [\n  {\n   "lattice": "DB',
    "no-entries": '{"version": 1}',
    "not-an-object": "[1, 2]",
    "row-not-an-object": '{"version": 1, "entries": [1]}',
    "row-qrl": _one_row_table(lattice="QRL"),
    "row-string-db": _one_row_table(squeezing_db="10"),
    "row-infinite-db": _one_row_table(squeezing_db=math.inf),
    "row-angles-not-a-list": _one_row_table(angles=0.5),
    "row-two-angles": _one_row_table(angles=[0.0, 0.0]),
    "row-string-angle": _one_row_table(angles=["a"] + [0.0] * 9),
    "row-overflowing-angle": _one_row_table(angles=[math.inf] + [0.0] * 9).replace(
        "Infinity", "1e400"),
    "row-huge-int-angle": _one_row_table(angles=[10 ** 400] + [0.0] * 9),
    "row-bool-angle": _one_row_table(angles=[True] + [0.0] * 9),
    "row-string-theta-c": _one_row_table(theta_c="x"),
    "row-string-accepted": _one_row_table(accepted="no"),
    "row-int-accepted": _one_row_table(accepted=1),
    "theta-c-row-without-theta-c": _one_row_table(variable_theta_c=True),
    "theta-c-row-string-theta-c": _one_row_table(variable_theta_c=True, theta_c="x"),
    "theta-c-row-on-bsl": _one_row_table(lattice="BSL", angles=[0.0] * 12,
                                         variable_theta_c=True, theta_c=0.7),
    "fixed-row-with-theta-c": _one_row_table(theta_c=0.7),
    # the rows an older table held, with the DBSL control basis searched
    "theta-c-row": _one_row_table(variable_theta_c=True, theta_c=0.7),
    "row-with-variable-theta-c-false": _one_row_table(variable_theta_c=False),
}


@pytest.mark.parametrize("command", [
    ["error-curve", "--lattice", "DBSL", "--gate", "FFCZ"],
    ["compare"],
    ["optimize", "--lattice", "BSL", "--out", "{path}"],
], ids=["error-curve", "compare", "optimize"])
@pytest.mark.parametrize("kind", list(MALFORMED_TABLES))
def test_malformed_table_is_one_usage_error(capsys, tmp_path, monkeypatch, fake_search,
                                            command, kind):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    path = tmp_path / "cz_basis_table.json"
    path.write_text(MALFORMED_TABLES[kind])
    command = [arg.format(path=path) for arg in command]
    code, _, err = run_cli(command + ["--db-min", "10", "--db-max", "10"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: malformed basis table {path}: ")
    assert err.count("\n") == 1
    assert path.read_text() == MALFORMED_TABLES[kind]
    assert not fake_search.calls


@pytest.mark.parametrize("command, message", [
    ("optimize --lattice DBSL --db-min 10 --db-max 10 --out {dir}",
     "cannot read basis table {dir}"),
    ("noise-curve --db-min 10 --db-max 10 --out {dir}", "cannot write --out {dir}"),
    ("dump-graph --lattice DBSL --out {dir}", "cannot write --out {dir}"),
    ("error-curve --lattice DBSL --gate FFCZ --db-min 10 --db-max 10",
     "cannot read basis table {dir}/cz_basis_table.json"),
], ids=["optimize-out", "noise-curve-out", "dump-graph-out", "cache-dir-table"])
def test_unusable_path_is_one_usage_error(capsys, tmp_path, monkeypatch, fake_search,
                                          command, message):
    # a directory where a file is read or written
    (tmp_path / "cz_basis_table.json").mkdir()
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(command.format(dir=tmp_path).split(), capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: " + message.format(dir=tmp_path) + ": ")
    assert err.count("\n") == 1 and out == ""
    assert not fake_search.calls


@pytest.mark.parametrize("command", [
    ["noise-curve"], ["error-curve", "--lattice", "QRL", "--gate", "FFCZ"], ["compare"],
    ["optimize", "--lattice", "DBSL", "--out", "{dir}/cz_basis_table.json"],
], ids=["noise-curve", "error-curve-qrl", "compare", "optimize"])
@pytest.mark.parametrize("db_min", ["0", "-1"])
def test_nonpositive_squeezing_is_one_usage_error(capsys, tmp_path, monkeypatch, fake_search,
                                                  command, db_min):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    command = [arg.format(dir=tmp_path) for arg in command]
    code, out, err = run_cli(command + [f"--db-min={db_min}", "--db-max=1", "--db-step=0.5"],
                             capsys)
    assert code == cli.EXIT_USAGE
    assert err == f"error: --db-min must be positive (squeezing in dB), got {db_min}\n"
    assert out == "" and list(tmp_path.iterdir()) == []
    assert not fake_search.calls


@pytest.mark.parametrize("command", [
    ["noise-curve"], ["error-curve", "--lattice", "QRL", "--gate", "FFCZ"], ["compare"],
    ["optimize", "--lattice", "DBSL", "--out", "{dir}/cz_basis_table.json"],
], ids=["noise-curve", "error-curve-qrl", "compare", "optimize"])
def test_grid_points_closer_than_one_table_point_are_one_usage_error(
        capsys, tmp_path, monkeypatch, fake_search, command):
    # optimize would write two rows at one point, which the next load
    # refuses; the CSVs would print one squeezing twice
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    command = [arg.format(dir=tmp_path) for arg in command]
    code, out, err = run_cli(command + ["--db-min=15", "--db-max=15.000000002",
                                        "--db-step=5e-10"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == ("error: --db-step 5e-10 puts grid points closer than 1e-09 dB, "
                   "which the basis table holds as one point\n")
    assert out == "" and list(tmp_path.iterdir()) == []
    assert not fake_search.calls


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["error-curve", "--db-min", "10", "--db-max", "5",
                            "--db-step", "1"], capsys)
    assert code == cli.EXIT_USAGE


OPTIMIZE_INTO_TMP = ["optimize", "--lattice", "DBSL", "--out", "{dir}/table.json"]


@pytest.mark.parametrize("command, step", [
    (["noise-curve"], "0"), (["error-curve"], "0"), (["compare"], "0"),
    (OPTIMIZE_INTO_TMP, "0"), (["noise-curve"], "-0.5"),
    (["noise-curve"], "nan"), (["noise-curve"], "inf"),
])
def test_nonpositive_db_step_is_usage_error(capsys, tmp_path, command, step):
    command = [arg.format(dir=tmp_path) for arg in command]
    code, _, err = run_cli(command + ["--db-step", step], capsys)
    assert code == cli.EXIT_USAGE
    assert "--db-step must be positive and finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["noise-curve"], OPTIMIZE_INTO_TMP])
@pytest.mark.parametrize("flag, value", [
    ("--db-min", "nan"), ("--db-max", "nan"), ("--db-max", "inf"), ("--db-min", "-inf"),
])
def test_nonfinite_db_bound_is_usage_error(capsys, tmp_path, command, flag, value):
    command = [arg.format(dir=tmp_path) for arg in command]
    code, _, err = run_cli(command + [f"{flag}={value}"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: --db-min and --db-max must be finite")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("db_min, db_max, db_step, message", [
    ("-1e300", "1e300", "1e-300", "squeezing grid from -1e+300 to 1e+300"),
    ("0", "25", "1e-9", "squeezing grid from 0 to 25 in steps of 1e-09 has more than"),
    ("1e300", "-1e300", "1e-300", "empty or inconsistent squeezing grid"),
], ids=["overflow", "huge", "negative-overflow"])
def test_oversized_grid_is_refused_before_it_is_built(capsys, db_min, db_max, db_step,
                                                      message):
    code, out, err = run_cli(["noise-curve", f"--db-min={db_min}", f"--db-max={db_max}",
                              f"--db-step={db_step}"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert out == ""


def test_grid_points_printed_alike_are_one_usage_error(capsys):
    # 15 and 15 + 1e-9 dB print as one squeezing at the CSVs' ten digits
    code, out, err = run_cli(["noise-curve", "--lattice", "QRL", "--gate", "I",
                              "--db-min", "15", "--db-max", "15.000000001",
                              "--db-step", "1e-9"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == ("error: --db-step 1e-09 puts two grid points at one squeezing as the CSVs "
                   "print it\n")


@pytest.mark.parametrize("db_max", ["2.2", "2.3"])
def test_grid_step_must_divide_the_range(capsys, db_max):
    code, _, err = run_cli(["noise-curve", "--db-min", "1", "--db-max", db_max,
                            "--db-step", "0.5"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: empty or inconsistent squeezing grid")


def test_unknown_lattice_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["noise-curve", "--lattice", "SQUARE"])
    assert exc.value.code == 2


def test_dump_graph(capsys):
    code, out, _ = run_cli(["dump-graph", "--lattice", "DBSL", "--db", "12",
                            "--region", "cz"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"] == "DBSL"
    assert len(doc["adjacency"]) == 22
    adj = np.array(doc["adjacency"])
    assert np.allclose(adj, adj.T)


def test_dump_graph_to_file(tmp_path, capsys):
    path = tmp_path / "graph.json"
    code, _, _ = run_cli(["dump-graph", "--lattice", "QRL", "--db", "10",
                          "--out", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["lattice"] == "QRL"


@pytest.mark.parametrize("db", ["0", "3", "15"])
def test_dump_graph_teleport_is_the_basis_for_graph(capsys, db):
    code, out, _ = run_cli(["dump-graph", "--lattice", "TELEPORT", "--db", db], capsys)
    assert code == 0

    def refuse(name):
        raise AssertionError(f"non-strict JSON constant {name}")

    doc = json.loads(out, parse_constant=refuse)
    r = lat.db_to_r(float(db))
    assert (doc["lattice"], doc["r"], doc["t"]) == ("TELEPORT", r, math.tanh(2.0 * r))
    assert doc["epsilon"] == lat.effective_epsilon(r)
    if r > 0:
        graph = gates.basis_for("TELEPORT", "I", r).steps[0].graph
        assert doc == json.loads(lat.graph_to_json(graph))
    code, out, err = run_cli(["dump-graph", "--lattice", "TELEPORT", "--db", db,
                              "--region", "cz"], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert "TELEPORT" in err


def test_curve_block_builds_each_step_graph_once(capsys, monkeypatch):
    built = []
    build = lat._build

    def counting(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(lat, "_build", counting)
    code, _, _ = run_cli(["noise-curve"], capsys)
    assert code == 0
    # 4 lattices x 3 gates x 4 blocks of 25 points on the 100-point grid
    assert len(built) == 4 * 3 * 4


@pytest.mark.parametrize("flag, value", [
    ("--db", "nan"), ("--db", "inf"), ("--db", "-inf"),
    ("--theta-c", "nan"), ("--theta-c", "inf"),
])
def test_dump_graph_refuses_nonfinite_values(capsys, flag, value):
    code, out, err = run_cli(["dump-graph", "--lattice", "DBSL", f"{flag}={value}"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == f"error: {flag} must be finite, got {value}\n"
    assert out == ""


def test_optimize_writes_table_and_error_curve_consumes_it(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 1, "weight_grid": [1e-4, 1e-2]}))
    code, out, _ = run_cli(["optimize", "--lattice", "DBSL", "--db-min", "15",
                            "--db-max", "15", "--config", str(cfg), "--seed", "20200527",
                            "--out", str(tmp_path / "cz_basis_table.json")], capsys)
    assert code == 0
    [row] = gates.load_basis_table()["entries"]
    assert row["lattice"] == "DBSL" and row["accepted"]

    code, out, _ = run_cli(["error-curve", "--lattice", "DBSL", "--gate", "FFCZ",
                            "--db-min", "15", "--db-max", "15"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    vals = [float(r[3]) for r in rows if r[0] == "DBSL"]
    assert vals == [pytest.approx(row["perr"], rel=1e-8)]


def test_optimize_needs_an_out_path(capsys):
    # the table is written whole, so no run replaces the package table by default
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["optimize", "--lattice", "DBSL"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_optimize_takes_only_the_cached_cz_lattices(capsys):
    parser = cli.build_parser()
    for lattices in (["DBSL"], ["BSL"], ["MBSL"], ["DBSL", "BSL", "MBSL"]):
        args = parser.parse_args(["optimize", "--lattice", *lattices, "--out", "t.json"])
        assert args.lattice == lattices
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["optimize", "--lattice", "DBSL", "QRL", "--out", "t.json"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice: 'QRL'" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"weight_grd": [1e-4]}, "unknown optimizer config keys: weight_grd"),
    ({"restarts": 0}, "restarts must be at least 1"),
    ([1e-4], "must be a JSON object"),
    ({"restarts": "8"}, "restarts must be an integer"),
    ({"restarts": 2.5}, "restarts must be an integer"),
    ({"restarts": True}, "restarts must be an integer"),
    ({"weight_grid": 5}, "weight_grid must be a nonempty list"),
    ({"weight_grid": [1e-4, math.inf]}, "weight_grid must be a nonempty list"),
    ({"weight_grid": [math.nan]}, "weight_grid must be a nonempty list"),
    ({"seed": "x"}, "seed must be a non-negative integer"),
    ({"step": 0.1}, "unknown optimizer config keys: step"),
])
def test_optimize_bad_config_is_usage_error(capsys, tmp_path, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    table = tmp_path / "table.json"
    code, _, err = run_cli(["optimize", "--lattice", "MBSL", "--db-min", "15",
                            "--db-max", "15", "--db-step", "1",
                            "--config", str(cfg), "--out", str(table)], capsys)
    assert code == cli.EXIT_USAGE
    assert message in err
    assert not table.exists()


def test_optimize_refuses_restarts_above_the_bound(capsys, tmp_path, fake_search):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 10 ** 12}))
    table = tmp_path / "table.json"
    code, out, err = run_cli(["optimize", "--lattice", "DBSL", "--config", str(cfg),
                              "--out", str(table)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: restarts must be at least 1 and at most 1000000, got 1000000000000\n"
    assert fake_search.calls == []
    assert not table.exists()


def test_optimize_unreadable_config_is_usage_error(capsys, tmp_path):
    table = tmp_path / "table.json"
    code, _, err = run_cli(["optimize", "--lattice", "MBSL",
                            "--config", str(tmp_path / "missing.json"),
                            "--out", str(table)], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: cannot read --config")
    assert err.count("\n") == 1
    assert not table.exists()


@pytest.mark.parametrize("content", [b"", b"{\"restarts\": 1,", b"\xff\xfe"])
def test_optimize_malformed_config_names_the_file(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    table = tmp_path / "table.json"
    code, _, err = run_cli(["optimize", "--lattice", "MBSL", "--config", str(cfg),
                            "--out", str(table)], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: --config {cfg} is not valid JSON: ")
    assert err.count("\n") == 1
    assert not table.exists()


# ---------------------------------------------- optimize: the table writer

GRID = [14.0, 14.5, 15.0, 15.5, 16.0]  # spans cli.ANCHOR_DB


class Interrupted(Exception):
    pass


class Call(NamedTuple):
    db: float
    restarts: int
    warm: list


def n_free(lattice):
    return len(gates.cz_region(lattice, 1.0)[0].free_modes)


def _fake_perr(x, r):
    return float(0.5 + 0.5 * np.mean(np.cos(np.asarray(x) + 50.0 * r)))


@pytest.fixture
def fake_search(monkeypatch):
    """A cheap deterministic stand-in for ``optimizer.cz_search``.

    Like the real search it depends on ``config.seed`` and on the warm starts
    it receives: it scores each exact warm start and two seeded random points
    and returns the best, accepted below perr 0.6.  ``calls`` records the
    squeezing, the restarts and the warm starts of every call, and ``found``
    the angles each call returned; setting ``stop_after`` interrupts the run
    at that call.
    """
    def search(lattice, r, config, warm_starts=()):
        if len(search.calls) == search.stop_after:
            raise Interrupted
        search.calls.append(Call(round(r * 20.0 / math.log(10.0), 9), config.restarts,
                                 [np.array(w) for w in warm_starts]))
        starts = [np.asarray(w, dtype=float) for w in warm_starts]
        starts += list(np.random.default_rng(config.seed).uniform(-np.pi, np.pi,
                                                                   (2, n_free(lattice))))
        x = min(starts, key=lambda x: _fake_perr(x, r))
        search.found.append(x)
        perr = _fake_perr(x, r)
        return optimizer.OptResult(x, 1e-7, perr, perr < 0.6)

    search.calls, search.found, search.stop_after = [], [], None
    monkeypatch.setattr(optimizer, "cz_search", search)
    return search


def optimize(path, *extra, lattice="DBSL", grid=GRID, seed=1):
    """``cvmbqc optimize`` of the lattices named in ``lattice``, one space apart."""
    return cli.main(["optimize", "--lattice", *lattice.split(), "--db-min", f"{grid[0]:g}",
                     "--db-max", f"{grid[-1]:g}", "--db-step", "0.5", "--seed", str(seed),
                     "--out", str(path), *extra])


def entries(path):
    return json.loads(path.read_text())["entries"]


def _row(lattice, db, **extra):
    return {"lattice": lattice, "squeezing_db": db, "angles": [0.1] * n_free(lattice),
            "residual": 0.0, "perr": 0.3, "accepted": True, **extra}


def test_optimize_saves_the_table_once(tmp_path, fake_search, monkeypatch):
    saves = []
    save = gates.save_basis_table
    monkeypatch.setattr(gates, "save_basis_table", lambda *a: saves.append(a) or save(*a))
    path = tmp_path / "table.json"
    assert optimize(path, lattice="DBSL BSL") == cli.EXIT_OK
    assert len(saves) == 1 and len(entries(path)) == 2 * len(GRID)


def test_interrupted_optimize_leaves_the_table_unchanged(tmp_path, fake_search):
    path = tmp_path / "table.json"
    assert optimize(path, seed=1) == cli.EXIT_OK
    before = path.read_bytes()
    fake_search.stop_after = len(fake_search.calls) + 3
    with pytest.raises(Interrupted):
        optimize(path, seed=2)
    assert path.read_bytes() == before
    with pytest.raises(Interrupted):  # nothing to leave behind in a new table either
        optimize(tmp_path / "new.json", seed=2)
    assert not (tmp_path / "new.json").exists()


def test_optimize_builds_each_lattice_as_its_own_run(tmp_path, fake_search):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 7}))
    apart = []
    for lattice in ("DBSL", "BSL"):
        assert optimize(tmp_path / f"{lattice}.json", "--config", str(cfg),
                        lattice=lattice) == cli.EXIT_OK
        apart += entries(tmp_path / f"{lattice}.json")
    del fake_search.calls[:]
    assert optimize(tmp_path / "both.json", "--config", str(cfg),
                    lattice="DBSL BSL") == cli.EXIT_OK
    assert entries(tmp_path / "both.json") == sorted(
        apart, key=lambda e: (e["lattice"], e["squeezing_db"]))
    # every point of each lattice runs the config's restarts, and the second
    # lattice's anchor starts from its own start, not the first's last point
    assert [c.restarts for c in fake_search.calls] == [7] * 5 * 2
    assert np.array_equal(fake_search.calls[5].warm[0], gates.cz_start("BSL", lat.db_to_r(15.0)))
    del fake_search.calls[:]
    # a lattice named twice is built once
    assert optimize(tmp_path / "twice.json", "--config", str(cfg),
                    lattice="DBSL DBSL") == cli.EXIT_OK
    assert len(fake_search.calls) == len(GRID)
    assert (tmp_path / "twice.json").read_bytes() == (tmp_path / "DBSL.json").read_bytes()


def test_optimize_rerun_is_a_fixed_point(tmp_path, fake_search):
    path = tmp_path / "table.json"
    assert optimize(path) == cli.EXIT_OK
    built = path.read_bytes()
    assert optimize(path) == cli.EXIT_OK
    assert path.read_bytes() == built
    # rows at the fake's optimum, perr 0, would win every search they were a
    # warm start of; the build writes the same bytes over them, so none is read
    other = tmp_path / "other.json"
    best = [_row("DBSL", db, angles=[math.pi - 50.0 * lat.db_to_r(db)] * n_free("DBSL"),
                 perr=0.0) for db in GRID]
    other.write_text(json.dumps({"version": 1, "entries": best + [_row("BSL", 14.0)]}))
    assert optimize(other) == cli.EXIT_OK
    assert other.read_bytes() == built


def test_optimize_continues_outward_from_the_anchor(tmp_path, fake_search):
    path = tmp_path / "table.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 7}))
    assert optimize(path, seed=2) == cli.EXIT_OK
    del fake_search.calls[:]
    assert optimize(path, "--config", str(cfg)) == cli.EXIT_OK
    final = {r["squeezing_db"]: r for r in entries(path)}
    # the anchor from the lattice's start in code, then up from it, then down,
    # every point with the config's restarts
    assert [c.db for c in fake_search.calls] == [15.0, 15.5, 16.0, 14.5, 14.0]
    assert [c.restarts for c in fake_search.calls] == [7] * 5
    for db, _, warm in fake_search.calls:
        # only the row this run found toward the anchor, never the table's own
        toward = (gates.cz_start("DBSL", lat.db_to_r(db)) if db == cli.ANCHOR_DB
                  else final[db - 0.5 if db > cli.ANCHOR_DB else db + 0.5]["angles"])
        assert [list(w) for w in warm] == [list(toward)]
    del fake_search.calls[:]
    assert optimize(path, "--config", str(cfg), grid=[3.0]) == cli.EXIT_OK
    [call] = fake_search.calls  # a one-point grid is its anchor
    assert call.restarts == 7
    assert np.array_equal(call.warm[0], gates.cz_start("DBSL", lat.db_to_r(3.0)))


def test_optimize_fails_the_points_it_cannot_accept(tmp_path, capsys, fake_search):
    # seed 8: no start is accepted at 15.5 dB, every other point is
    path = tmp_path / "table.json"
    assert optimize(path, seed=1) == cli.EXIT_OK
    before = path.read_bytes()
    capsys.readouterr()
    del fake_search.calls[:], fake_search.found[:]
    assert optimize(path, seed=8) == cli.EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    [line] = [line for line in out if " dB: INFEASIBLE" in line]
    assert line.startswith("DBSL 15.5 dB: INFEASIBLE residual=")
    assert out[-1] == "wrote nothing: a point is INFEASIBLE"
    assert path.read_bytes() == before
    # the sweep still continues from the unaccepted point's best angles
    [(i, call)] = [(i, c) for i, c in enumerate(fake_search.calls) if c.db == 16.0]
    assert fake_search.calls[i - 1].db == 15.5
    assert np.array_equal(call.warm[0], fake_search.found[i - 1])
    assert optimize(tmp_path / "new.json", seed=8) == cli.EXIT_VERIFY
    assert not (tmp_path / "new.json").exists()


def test_optimize_writes_the_same_table_under_every_seed(tmp_path):
    # the real search: each section starts from its start in code and draws
    # no uniform start, so two seeds write the same bytes, and the DBSL and
    # MBSL rows are their closed forms
    paths = [tmp_path / f"seed-{seed}.json" for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        assert optimize(path, lattice="DBSL BSL MBSL", grid=[14.5, 15.5],
                        seed=seed) == cli.EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()
    closed_forms = {"DBSL": gates.dbsl_cz_angles, "MBSL": gates.mbsl_cz_angles}
    rows = [row for row in entries(paths[0]) if row["lattice"] in closed_forms]
    assert len(rows) == 6
    for row in rows:
        closed = closed_forms[row["lattice"]](lat.db_to_r(row["squeezing_db"]))
        turn = (np.subtract(row["angles"], closed) + np.pi / 2) % np.pi - np.pi / 2
        assert np.abs(turn).max() <= 1e-9, (row["lattice"], row["squeezing_db"])


@pytest.mark.parametrize("db", [0.25, 0.5])
def test_one_point_dbsl_grid_at_low_squeezing_is_accepted(tmp_path, capsys, db):
    # the closed-form start sits at the rounding floor above ROOT_TOL, where
    # no LM trial lowers the cost; LM stops before its damping overflows
    path = tmp_path / "table.json"
    assert cli.main(["optimize", "--lattice", "DBSL", "--db-min", str(db), "--db-max", str(db),
                     "--out", str(path)]) == cli.EXIT_OK
    [row] = entries(path)
    assert row["accepted"] and row["residual"] < optimizer.RESIDUAL_TOL
    assert capsys.readouterr().out.startswith(f"DBSL {db:g} dB: accepted ")


@pytest.mark.parametrize("command, patched", [
    ("optimize --lattice DBSL --db-min 10 --db-max 10 --out {path}", (optimizer, "cz_search")),
    ("error-curve --lattice BSL --gate F --db-min 10 --db-max 10.5 --db-step 0.5",
     (gates, "realize")),
], ids=["optimize", "error-curve"])
@pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
def test_numerical_failure_is_a_failed_search_not_a_usage_error(capsys, tmp_path, monkeypatch,
                                                                command, patched, error):
    def fail(*args, **kwargs):
        raise error("SVD did not converge")

    monkeypatch.setattr(*patched, fail)
    path = tmp_path / "table.json"
    assert cli.main(shlex.split(command.format(path=path))) == cli.EXIT_VERIFY
    point = "DBSL 10 dB" if command.startswith("optimize") else "BSL 10-10.5 dB"
    assert capsys.readouterr().err == f"error: {point}: SVD did not converge\n"
    assert not path.exists()


ROW_STATE_TABLES = {
    # a row that an older `optimize` wrote where no start was accepted
    "unaccepted-row": ([_row("DBSL", 10.0), _row("BSL", 10.0, accepted=False)],
                       "entry 1 is not a "),
    # two DBSL rows within the 1e-9 dB row identity, not next to each other
    "two-rows-at-one-point": ([_row("DBSL", 10.0), _row("BSL", 10.0),
                               _row("DBSL", 10.0 + 1e-10)],
                              "entries 0 and 2 are two DBSL rows at 10 dB"),
    # rows at a squeezing that is not positive, which verify would otherwise
    # reach as a degenerate basis or a bad r that names neither file nor row
    "row-at-zero-db": ([_row("DBSL", 10.0), _row("DBSL", 0.0)], "entry 1 is not a "),
    "row-at-negative-db": ([_row("DBSL", 10.0), _row("DBSL", -1.0)], "entry 1 is not a "),
}


@pytest.mark.parametrize("command", [
    "error-curve --lattice DBSL --gate FFCZ --db-min 10 --db-max 10",
    "compare --db-min 10 --db-max 10",
    "verify",
    "optimize --lattice DBSL --db-min 10 --db-max 10 --out {path}",
], ids=["error-curve", "compare", "verify", "optimize"])
@pytest.mark.parametrize("kind", list(ROW_STATE_TABLES))
def test_one_accepted_row_per_point_or_a_usage_error(capsys, tmp_path, monkeypatch,
                                                      fake_search, command, kind):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    path = tmp_path / "cz_basis_table.json"
    rows, message = ROW_STATE_TABLES[kind]
    path.write_text(json.dumps({"version": 1, "entries": rows}))
    before = path.read_text()
    code, out, err = run_cli(command.format(path=path).split(), capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: malformed basis table {path}: {message}")
    assert err.count("\n") == 1 and out == ""
    assert path.read_text() == before
    assert not fake_search.calls


def readme_commands():
    """The argv of every ``cvmbqc`` line in the README's code blocks."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text().split("```")[1::2]
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("cvmbqc ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"noise-curve", "error-curve", "compare",
                                              "optimize", "verify", "dump-graph"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: cvmbqc {shlex.join(argv)}")


SHIPPED_TABLE = Path(gates.__file__).parent / "data" / "cz_basis_table.json"


@pytest.fixture(scope="module")
def readme_table(tmp_path_factory):
    """The rows the README's table command (the one whose ``--out`` is the
    shipped table) writes into a new path; the command runs once for every
    section test, and spends at most 4,000 eliminations."""
    def writes_the_shipped_table(argv):
        return (argv[0] == "optimize" and "--out" in argv
                and Path(argv[argv.index("--out") + 1]).parts[-4:] == SHIPPED_TABLE.parts[-4:])

    [argv] = [a for a in readme_commands() if writes_the_shipped_table(a)]
    path = tmp_path_factory.mktemp("readme") / "table.json"
    argv[argv.index("--out") + 1] = str(path)
    evals, search = [], optimizer.cz_search

    def counted(*args, **kwargs):
        res = search(*args, **kwargs)
        evals.append(res.evals)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "cz_search", counted)
        assert cli.main(argv) == cli.EXIT_OK
    assert sum(evals) <= 4000
    return entries(path)


@pytest.mark.parametrize("lattice", ["BSL", "DBSL", "MBSL"])
def test_readme_command_regenerates_the_shipped_section(readme_table, lattice):
    shipped_rows = gates.load_basis_table(SHIPPED_TABLE)["entries"]
    assert ({r["lattice"] for r in readme_table}
            == {r["lattice"] for r in shipped_rows} == {"BSL", "DBSL", "MBSL"})
    shipped = [r for r in shipped_rows if r["lattice"] == lattice]
    built = [r for r in readme_table if r["lattice"] == lattice]
    assert [r["squeezing_db"] for r in built] == [r["squeezing_db"] for r in shipped]
    for new, old in zip(built, shipped):
        turn = (np.subtract(new["angles"], old["angles"]) + np.pi / 2) % np.pi - np.pi / 2
        assert np.abs(turn).max() <= 1e-9, new["squeezing_db"]
        assert new["perr"] == pytest.approx(old["perr"], rel=1e-9, abs=0), new["squeezing_db"]
        assert new["accepted"] == old["accepted"], new["squeezing_db"]


def test_csv_outputs_are_byte_stable(capsys):
    args = ["noise-curve", "--lattice", "MBSL", "--gate", "I", "P1",
            "--db-min", "4", "--db-max", "8", "--db-step", "2"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


# sha256 of the CSVs the four default-grid curve commands print, captured
# with numpy 2.4 and OpenBLAS 0.3 on x86-64.  A change that moves a digest
# must list the rows it changes in CHANGES.md and update the digest here.
DEFAULT_CURVE_DIGESTS = [
    (["noise-curve"], "d901e233571c5fbff0abff2340ce81c12985574be941d11901e761e5b596db76"),
    (["error-curve", "--gate", "I", "F", "P1"],
     "b32179e2014c5ff8e3e0bf356ea4a1ad82cbc80e4cd41cca7c563a0ba094a185"),
    (["error-curve", "--lattice", "QRL", "--gate", "FFCZ"],
     "49659207d0f5ba4ab73d841d039b6e1b11c36c7f4bcadd7832dbaac5b0654fc1"),
    (["noise-curve", "--lattice", "DBSL", "--gate", "SWAP"],
     "0056e0dd135eea7b1297e977c1666a5cd7d620b34264f61f6bf30fb101635fac"),
    # these two read the shipped basis table
    (["error-curve", "--lattice", "DBSL", "BSL", "MBSL", "--gate", "FFCZ"],
     "290bcd795a23ef4bba43de4524696957f7dfba1ad648d449717694a293b13392"),
    (["compare"], "7e53d791bb3f6ada0ee510d2fdb4b0e2e8fc5250b07fecf7eab3e692cd84a068"),
]


@pytest.mark.parametrize("args, digest", DEFAULT_CURVE_DIGESTS,
                         ids=["noise", "error-I-F-P1", "error-QRL-FFCZ", "noise-DBSL-SWAP",
                              "error-cached-FFCZ", "compare"])
def test_default_curve_csvs_are_pinned(capsys, args, digest):
    code, out, _ = run_cli(args, capsys)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_rows_rederivable_by_library_calls(capsys):
    from cvmbqc import gkp
    code, out, _ = run_cli(["error-curve", "--lattice", "MBSL", "--gate", "P1",
                            "--db-min", "9", "--db-max", "9", "--db-step", "1"], capsys)
    _, rows = rows_of(out)
    val = [float(r[3]) for r in rows if r[0] == "MBSL"][0]
    direct = gkp.gate_error_probability(gates.basis_for("MBSL", "P1", lat.db_to_r(9.0)))
    assert val == pytest.approx(direct, rel=1e-9)


def _write_cache(tmp_path, entries):
    (tmp_path / "cz_basis_table.json").write_text(
        json.dumps({"version": 1, "entries": entries}))


def test_verify_subcommand_smoke(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [])
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"]
    assert all(rep["pass"] for rep in doc["reports"])


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--tol", "0"),
    ("--cache-stride", "0"), ("--cache-stride", "-3"),
    ("--r", "nan"), ("--r", "inf"), ("--r", "0"), ("--r", "-1"),
])
def test_verify_refuses_bad_limits_before_any_plan(capsys, tmp_path, monkeypatch,
                                                   flag, value):
    # verify is one fixed suite: it takes no tolerance, stride or squeezing
    from cvmbqc import oracle
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [])
    monkeypatch.setattr(oracle, "verify_plan",
                        lambda *a, **k: pytest.fail("a plan was verified"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", f"{flag}={value}"])
    assert exc.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert f"error: unrecognized arguments: {flag}={value}" in err
    assert out == ""


def test_verify_missing_cache_is_cache_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    code, _, err = run_cli(["verify"], capsys)
    assert code == cli.EXIT_CACHE


def test_verify_corrupted_cache_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [{
        "lattice": "DBSL", "squeezing_db": 12.0,
        "angles": [0.3, -0.2, 0.5, 0.1, -0.7, 0.9, 0.2, -0.4, 0.6, 0.8],
        "residual": 1e-7, "perr": 1e-3, "accepted": True,
    }])
    code, out, _ = run_cli(["verify"], capsys)
    assert code == cli.EXIT_VERIFY
    doc = json.loads(out)
    assert not doc["pass"]


@pytest.mark.parametrize("accepted", [{}, {"accepted": True}, {"accepted": False}])
def test_verify_checks_every_row_a_plan_is_built_from(capsys, tmp_path, monkeypatch, accepted):
    # a row without "accepted" is served like an accepted one, so it is
    # verified too; an unaccepted row makes the table a usage error
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [{
        "lattice": "DBSL", "squeezing_db": 12.0,
        "angles": [0.3, -0.2, 0.5, 0.1, -0.7, 0.9, 0.2, -0.4, 0.6, 0.8], **accepted,
    }])
    code, out, err = run_cli(["verify"], capsys)
    if accepted.get("accepted", True):
        plans = [rep.get("plan") for rep in json.loads(out)["reports"]]
        assert "DBSL:FFCZ@12dB" in plans
        assert code == cli.EXIT_VERIFY
    else:
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"error: malformed basis table {tmp_path / 'cz_basis_table.json'}: "
                              "entry 0 is not a ")


def test_verify_checks_every_row_of_the_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    rows = [r for r in gates.load_basis_table(SHIPPED_TABLE)["entries"]
            if r["lattice"] == "DBSL"][:9]
    rows[1]["angles"][0] += 1e-3
    _write_cache(tmp_path, rows)
    code, out, _ = run_cli(["verify"], capsys)
    assert code == cli.EXIT_VERIFY
    passed = {rep["plan"]: rep["pass"] for rep in json.loads(out)["reports"]
              if rep.get("plan", "").startswith("DBSL:FFCZ@")}
    assert passed == {f"DBSL:FFCZ@{r['squeezing_db']:g}dB": r is not rows[1] for r in rows}


def test_error_probability_that_underflows_prints_as_positive_zero(capsys):
    code, out, _ = run_cli(["error-curve", "--lattice", "QRL", "--gate", "I",
                            "--db-min", "36", "--db-max", "36", "--db-step", "1"], capsys)
    assert code == cli.EXIT_OK
    assert out.splitlines()[1:] == ["QRL,I,36,0.000000000e+00",
                                    "baseline,FFCZ,36,0.000000000e+00"]


@pytest.mark.parametrize("command", [
    "noise-curve --lattice QRL --gate I --db-min 3086 --db-max 3086 --db-step 1",
    "dump-graph --lattice QRL --db 3086",
    "optimize --lattice DBSL --db-min 3080 --db-max 3086 --db-step 1 --out {path}",
], ids=["noise-curve", "dump-graph", "optimize"])
def test_squeezing_beyond_sech_range_is_one_usage_error(capsys, tmp_path, fake_search, command):
    path = tmp_path / "table.json"
    code, out, err = run_cli(command.format(path=path).split(), capsys)
    assert code == cli.EXIT_USAGE
    assert err == ("error: squeezing 3086 dB (r = 355.289) is too large: "
                   "cosh(2r) overflows above 3085.56 dB\n")
    assert out == ""
    assert not fake_search.calls and not path.exists()
    # one dB lower every point is computed (the stand-in search may accept none)
    code, out, _ = run_cli(command.replace("3086", "3085").format(path=path).split(), capsys)
    assert code != cli.EXIT_USAGE and out


def test_noise_curve_swap_gate(capsys):
    code, out, _ = run_cli(["noise-curve", "--lattice", "DBSL", "--gate", "SWAP",
                            "--db-min", "10", "--db-max", "10", "--db-step", "1"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    quads = {r[3] for r in rows if r[0] == "DBSL"}
    assert quads == {"x1", "x2", "p1", "p2"}
    code, _, err = run_cli(["noise-curve", "--lattice", "QRL", "--gate", "SWAP",
                            "--db-min", "10", "--db-max", "10", "--db-step", "1"], capsys)
    assert code == cli.EXIT_USAGE


def test_cli_import_leaves_scipy_signal_unloaded():
    # the oracle is imported by `verify` alone
    code = "import sys, cvmbqc.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_import_starts_no_process_machinery():
    # the package starts no processes, so it never imports their machinery
    code = ("import sys, cvmbqc.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_optimize_runs_its_search_without_process_machinery(tmp_path):
    # the search solves its starts in process, so a whole optimize run loads
    # neither multiprocessing nor concurrent.futures
    config = tmp_path / "optimizer.json"
    config.write_text(json.dumps({"restarts": 4}))
    code = ("import sys; from cvmbqc.cli import main; "
            f"code = main(['optimize', '--lattice', 'DBSL', '--db-min', '15', '--db-max', '15', "
            f"'--config', {str(config)!r}, '--out', {str(tmp_path / 'table.json')!r}]); "
            "print(code, [m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               CVMBQC_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
    assert len(json.loads((tmp_path / "table.json").read_text())["entries"]) == 1


def test_cli_import_leaves_the_optimizer_unloaded():
    # only `optimize` imports the search and its kernels
    code = ("import sys, cvmbqc.cli; "
            "print([m for m in ('cvmbqc.optimizer', 'cvmbqc._kernels') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(sorted(rows, key=lambda row: (row[0], row[1], float(row[2]), row[3:4])))
    return buf.getvalue()


def test_curves_across_a_block_boundary_equal_per_point_rows(capsys):
    # 34 points: the curve commands realize them as blocks of 25 and 9
    from cvmbqc import gkp
    from cvmbqc.reduction import noise_factors
    grid = [0.25 + 0.75 * i for i in range(34)]
    noise, error = [], []
    for db in grid:
        r, x = lat.db_to_r(db), f"{db:.10g}"
        delta, var = gkp.resource_variances(r)
        noise += [["reference", "resource", x, "p", f"{-db:.10g}"],
                  ["reference", "effective", x, "p", f"{10.0 * math.log10(2.0 * var):.10g}"]]
        ffcz = gkp.propagate_spikes(gates.target_symplectic("FFCZ"), np.zeros(4), delta)
        error.append(["baseline", "FFCZ", x, f"{gkp.error_probability(ffcz, delta):.9e}"])
        for lattice in cli.LATTICES:
            for gate in ("I", "F", "P1"):
                res = gates.realize(gates.basis_for(lattice, gate, r))
                sigma2 = noise_factors(res) * var
                noise += [[lattice, gate, x, q, f"{10.0 * math.log10(2.0 * v):.10g}"]
                          for q, v in zip(("x", "p"), sigma2)]
                perr = gkp.error_probability(gkp.propagate_spikes(res.G, sigma2, delta), delta)
                error.append([lattice, gate, x, f"{perr:.9e}"])
    span = ["--db-min", "0.25", "--db-max", "25", "--db-step", "0.75"]
    _, out, _ = run_cli(["noise-curve"] + span, capsys)
    assert out == _csv_text(["lattice", "gate", "squeezing_db", "quadrature",
                             "noise_variance_db"], noise)
    _, out, _ = run_cli(["error-curve", "--gate", "I", "F", "P1"] + span, capsys)
    assert out == _csv_text(["lattice", "gate", "squeezing_db", "perr"], error)
