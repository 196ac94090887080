import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

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
}


@pytest.mark.parametrize("command", [
    ["error-curve", "--lattice", "DBSL", "--gate", "FFCZ"],
    ["compare"],
    ["optimize", "--lattice", "BSL"],
], ids=["error-curve", "compare", "optimize"])
@pytest.mark.parametrize("kind", list(MALFORMED_TABLES))
def test_malformed_table_is_one_usage_error(capsys, tmp_path, monkeypatch, fake_search,
                                            command, kind):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    path = tmp_path / "cz_basis_table.json"
    path.write_text(MALFORMED_TABLES[kind])
    code, _, err = run_cli(command + ["--db-min", "10", "--db-max", "10"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: malformed basis table {path}: ")
    assert err.count("\n") == 1
    assert path.read_text() == MALFORMED_TABLES[kind]
    assert not fake_search.calls


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["error-curve", "--db-min", "10", "--db-max", "5",
                            "--db-step", "1"], capsys)
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("command, step", [
    (["noise-curve"], "0"), (["error-curve"], "0"), (["compare"], "0"),
    (["optimize", "--lattice", "DBSL"], "0"), (["noise-curve"], "-0.5"),
    (["noise-curve"], "nan"), (["noise-curve"], "inf"),
])
def test_nonpositive_db_step_is_usage_error(capsys, command, step):
    code, _, err = run_cli(command + ["--db-step", step], capsys)
    assert code == cli.EXIT_USAGE
    assert "--db-step must be positive and finite" in err


@pytest.mark.parametrize("command", [["noise-curve"], ["optimize", "--lattice", "DBSL"]])
@pytest.mark.parametrize("flag, value", [
    ("--db-min", "nan"), ("--db-max", "nan"), ("--db-max", "inf"), ("--db-min", "-inf"),
])
def test_nonfinite_db_bound_is_usage_error(capsys, command, flag, value):
    code, _, err = run_cli(command + [f"{flag}={value}"], capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: --db-min and --db-max must be finite")
    assert err.count("\n") == 1


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
                            "--db-max", "15", "--config", str(cfg),
                            "--seed", "20200527"], capsys)
    assert code == 0
    [row] = gates.load_basis_table()["entries"]
    assert row["lattice"] == "DBSL" and row["accepted"]

    code, out, _ = run_cli(["error-curve", "--lattice", "DBSL", "--gate", "FFCZ",
                            "--db-min", "15", "--db-max", "15"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    vals = [float(r[3]) for r in rows if r[0] == "DBSL"]
    assert vals == [pytest.approx(row["perr"], rel=1e-8)]


def test_optimize_takes_only_the_cached_cz_lattices(capsys):
    parser = cli.build_parser()
    for lattice in ("DBSL", "BSL", "MBSL"):
        assert parser.parse_args(["optimize", "--lattice", lattice]).lattice == lattice
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["optimize", "--lattice", "QRL"])
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

GRID = [2.0, 2.5, 3.0, 3.5]


class Interrupted(Exception):
    pass


def n_free(lattice):
    return len(gates.cz_region(lattice, 1.0)[0].free_modes)


def _fake_perr(x, r):
    return float(0.5 + 0.5 * np.mean(np.cos(np.asarray(x) + 50.0 * r)))


@pytest.fixture
def fake_search(monkeypatch):
    """A cheap deterministic stand-in for ``optimizer.cz_search``.

    Like the real search it depends on ``config.seed`` and on the warm starts
    it receives: it scores each exact warm start and two seeded random points
    and returns the best.  ``calls`` records the warm starts of every call;
    setting ``stop_after`` interrupts the run at that call and ``hook(n)``
    runs before call ``n``.
    """
    def search(lattice, r, config, warm_starts=(), variable_theta_c=False):
        if len(search.calls) == search.stop_after:
            raise Interrupted
        search.hook(len(search.calls))
        search.calls.append([np.array(w) for w in warm_starts])
        k = n_free(lattice)
        n = k + 1 if variable_theta_c else k
        starts = [np.append(w, np.pi / 4) if len(w) == n - 1 else np.asarray(w, dtype=float)
                  for w in warm_starts]
        starts += list(np.random.default_rng(config.seed).uniform(-np.pi, np.pi, (2, n)))
        x = min(starts, key=lambda x: _fake_perr(x, r))
        perr = _fake_perr(x, r)
        return optimizer.OptResult(x[:k], 1e-7, perr, perr < 0.6,
                                   float(x[k]) if variable_theta_c else None)

    search.calls, search.stop_after, search.hook = [], None, lambda n: None
    monkeypatch.setattr(optimizer, "cz_search", search)
    return search


def optimize(path, *extra, lattice="DBSL", db_min=GRID[0], seed=1):
    return cli.main(["optimize", "--lattice", lattice, "--db-min", f"{db_min:g}",
                     "--db-max", f"{GRID[-1]:g}", "--db-step", "0.5", "--seed", str(seed),
                     "--out", str(path), *extra])


def entries(path):
    return json.loads(path.read_text())["entries"]


def _row(lattice, db, **extra):
    return {"lattice": lattice, "squeezing_db": db, "angles": [0.1] * n_free(lattice),
            "residual": 0.0, "perr": 0.3, "accepted": True, **extra}


def test_optimize_replaces_only_its_own_rows(tmp_path, fake_search):
    path = tmp_path / "table.json"
    kept = [_row("BSL", 2.0), _row("DBSL", 2.0, variable_theta_c=True, theta_c=0.7),
            _row("DBSL", 9.0)]
    stale = _row("DBSL", 2.5, accepted=False, perr=0.99)
    path.write_text(json.dumps({"version": 1, "entries": kept + [stale]}))
    written_meanwhile = _row("MBSL", 2.0)

    def another_writer(n):
        if n == 1:
            doc = json.loads(path.read_text())
            doc["entries"].append(written_meanwhile)
            path.write_text(json.dumps(doc))

    fake_search.hook = another_writer
    assert optimize(path) == cli.EXIT_OK
    rows = entries(path)
    ours = [r for r in rows if r["lattice"] == "DBSL" and not r.get("variable_theta_c")
            and r["squeezing_db"] in GRID]
    assert [r["squeezing_db"] for r in ours] == GRID
    assert stale not in ours
    others = [r for r in rows if r not in ours]
    assert sorted(others, key=str) == sorted(kept + [written_meanwhile], key=str)


def test_resumed_optimize_matches_uninterrupted(tmp_path, fake_search):
    straight = tmp_path / "straight.json"
    assert optimize(straight) == cli.EXIT_OK
    resumed = tmp_path / "resumed.json"
    fake_search.stop_after = len(fake_search.calls) + 2
    with pytest.raises(Interrupted):
        optimize(resumed)
    assert [r["squeezing_db"] for r in entries(resumed)] == GRID[:2]
    fake_search.stop_after = None
    assert optimize(resumed, db_min=GRID[2]) == cli.EXIT_OK
    assert resumed.read_bytes() == straight.read_bytes()


def test_optimize_rerun_never_raises_an_accepted_perr(tmp_path, fake_search):
    path = tmp_path / "table.json"
    assert optimize(path, seed=1) == cli.EXIT_OK
    before = {r["squeezing_db"]: r for r in entries(path)}
    assert any(r["accepted"] for r in before.values())
    for seed in (2, 3, 4):
        assert optimize(path, seed=seed) == cli.EXIT_OK
        after = {r["squeezing_db"]: r for r in entries(path)}
        for db, row in before.items():
            if row["accepted"]:
                assert after[db]["accepted"] and after[db]["perr"] <= row["perr"]
        before = after


def test_optimize_warm_starts_from_the_rows_around_each_point(tmp_path, fake_search):
    path = tmp_path / "table.json"
    assert optimize(path) == cli.EXIT_OK
    first = {r["squeezing_db"]: r for r in entries(path)}
    del fake_search.calls[:]
    assert optimize(path, seed=2) == cli.EXIT_OK
    final = {r["squeezing_db"]: r for r in entries(path)}
    for db, warm in zip(GRID, fake_search.calls):
        # the row below db is already this run's, the rows at and above not yet
        rows = [final.get(db - 0.5), first.get(db + 0.5), first[db]]
        assert [list(w) for w in warm] == [r["angles"] for r in rows if r and r["accepted"]]


def test_variable_theta_c_run_warm_starts_from_the_fixed_row(tmp_path, fake_search):
    path = tmp_path / "table.json"
    assert optimize(path) == cli.EXIT_OK
    fixed = {r["squeezing_db"]: r["angles"] for r in entries(path) if r["accepted"]}
    assert fixed
    del fake_search.calls[:]
    assert optimize(path, "--variable-theta-c") == cli.EXIT_OK
    for db, warm in zip(GRID, fake_search.calls):
        if db in fixed:
            assert any(np.array_equal(w, fixed[db]) for w in warm)
    assert [r["squeezing_db"] for r in entries(path) if r.get("variable_theta_c")] == GRID


def test_concurrent_sections_share_one_table(tmp_path, fake_search):
    path = tmp_path / "table.json"
    lattices = ("DBSL", "BSL", "MBSL")
    errors = []

    def worker(lattice):
        try:
            assert optimize(path, lattice=lattice) == cli.EXIT_OK
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(lat,)) for lat in lattices]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    rows = entries(path)
    for lattice in lattices:
        assert [r["squeezing_db"] for r in rows if r["lattice"] == lattice] == GRID


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text().split("```")[1::2]
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("cvmbqc ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: cvmbqc {shlex.join(argv)}")


def test_csv_outputs_are_byte_stable(capsys):
    args = ["noise-curve", "--lattice", "MBSL", "--gate", "I", "P1",
            "--db-min", "4", "--db-max", "8", "--db-step", "2"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


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
    code, out, _ = run_cli(["verify", "--r", "1.0"], capsys)
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
    from cvmbqc import oracle
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [])
    monkeypatch.setattr(oracle, "verify_plan",
                        lambda *a, **k: pytest.fail("a plan was verified"))
    code, out, err = run_cli(["verify", "--r", "1.0", f"{flag}={value}"], capsys)
    assert code == cli.EXIT_USAGE
    rule = "at least 1" if flag == "--cache-stride" else "positive and finite"
    assert err == f"error: {flag} must be {rule}, got {value}\n"
    assert out == ""


def test_verify_missing_cache_is_cache_miss(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    code, _, err = run_cli(["verify", "--r", "1.0"], capsys)
    assert code == cli.EXIT_CACHE


def test_verify_corrupted_cache_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [{
        "lattice": "DBSL", "squeezing_db": 12.0,
        "angles": [0.3, -0.2, 0.5, 0.1, -0.7, 0.9, 0.2, -0.4, 0.6, 0.8],
        "residual": 1e-7, "perr": 1e-3, "accepted": True,
    }])
    code, out, _ = run_cli(["verify", "--r", "1.0", "--cache-stride", "1"], capsys)
    assert code == cli.EXIT_VERIFY
    doc = json.loads(out)
    assert not doc["pass"]


@pytest.mark.parametrize("accepted", [{}, {"accepted": True}, {"accepted": False}])
def test_verify_checks_every_row_a_plan_is_built_from(capsys, tmp_path, monkeypatch, accepted):
    # a row without "accepted" is served like an accepted one, so it is verified too
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [{
        "lattice": "DBSL", "squeezing_db": 12.0,
        "angles": [0.3, -0.2, 0.5, 0.1, -0.7, 0.9, 0.2, -0.4, 0.6, 0.8], **accepted,
    }])
    code, out, _ = run_cli(["verify", "--r", "1.0", "--cache-stride", "1"], capsys)
    plans = [rep.get("plan") for rep in json.loads(out)["reports"]]
    served = accepted.get("accepted", True)
    assert ("DBSL:FFCZ@12dB" in plans) == served
    assert code == (cli.EXIT_VERIFY if served else cli.EXIT_OK)


def test_verify_checks_variable_theta_c_rows(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    _write_cache(tmp_path, [{
        "lattice": "DBSL", "squeezing_db": 12.0, "variable_theta_c": True, "theta_c": 0.4,
        "angles": [0.3, -0.2, 0.5, 0.1, -0.7, 0.9, 0.2, -0.4, 0.6, 0.8],
        "residual": 1e-7, "perr": 1e-3, "accepted": True,
    }])
    code, out, _ = run_cli(["verify", "--r", "1.0", "--cache-stride", "1"], capsys)
    assert code == cli.EXIT_VERIFY
    reports = {rep.get("plan"): rep for rep in json.loads(out)["reports"]}
    assert not reports["DBSL:FFCZ(theta_c)@12dB"]["pass"]


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
