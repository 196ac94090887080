import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cvmbqc import cli, gates
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


def test_optimize_writes_table_and_error_curve_consumes_it(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 6, "weight_grid": [1e-8, 1e-2]}))
    code, out, _ = run_cli(["optimize", "--lattice", "QRL", "--db-min", "10",
                            "--db-max", "10", "--db-step", "1",
                            "--config", str(cfg), "--seed", "1"], capsys)
    assert code == 0
    table = gates.load_basis_table()
    assert any(e["lattice"] == "QRL" and e["accepted"] for e in table["entries"])

    code, out, _ = run_cli(["error-curve", "--lattice", "QRL", "--gate", "FFCZ",
                            "--db-min", "10", "--db-max", "10", "--db-step", "1"], capsys)
    assert code == 0
    _, rows = rows_of(out)
    vals = [float(r[3]) for r in rows if r[0] == "QRL"]
    assert len(vals) == 1 and 0 < vals[0] < 1


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
