"""Command-line interface: reproduce the comparison curves as CSV artifacts,
regenerate the optimized-basis cache, and run the verification suites.

Exit codes: 0 success, 1 failed verification or search, 2 usage error, 3 cache miss.
A numerical failure inside a search or a reduction, numpy's ``LinAlgError``
(a ``ValueError`` subclass) or a ``FloatingPointError``, is a failed search,
not a usage error: it prints ``error: <lattice> <db> dB: <message>`` and
exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, gates, gkp, lattice as lat
from .errors import CacheMissError, reporting_os_errors
from .reduction import noise_factors

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CACHE = 3

LATTICES = ("DBSL", "BSL", "MBSL", "QRL")
GATES = ("I", "F", "P1", "FFCZ")
MAX_GRID_POINTS = 10 ** 6
# The curve commands realize this many grid points at a time as one stacked
# plan.  Larger blocks run faster but raise the peak memory; 25 caps it.
_BLOCK_POINTS = 25
VERIFY_TOL, VERIFY_R = 1e-9, (0.25, 0.5, 1.0, 1.5, 2.0)


def _db_grid(args):
    if not (math.isfinite(args.db_min) and math.isfinite(args.db_max)):
        raise ValueError(f"--db-min and --db-max must be finite, got "
                         f"{args.db_min:g} and {args.db_max:g}")
    if not (math.isfinite(args.db_step) and args.db_step > 0):
        raise ValueError(f"--db-step must be positive and finite, got {args.db_step:g}")
    steps = (args.db_max - args.db_min) / args.db_step
    if steps > MAX_GRID_POINTS - 1:
        raise ValueError(f"squeezing grid from {args.db_min:g} to {args.db_max:g} in steps "
                         f"of {args.db_step:g} has more than {MAX_GRID_POINTS:g} points")
    n = round(max(steps, -1.0))
    if n < 0 or abs(args.db_min + n * args.db_step - args.db_max) > 1e-9:
        raise ValueError(f"empty or inconsistent squeezing grid: --db-step {args.db_step:g} "
                         f"does not step from {args.db_min:g} to {args.db_max:g}")
    if args.db_min <= 0:
        raise ValueError(f"--db-min must be positive (squeezing in dB), got {args.db_min:g}")
    lat.effective_epsilon(lat.db_to_r(args.db_max))  # refuses one where cosh(2r) overflows
    grid = [args.db_min + i * args.db_step for i in range(n + 1)]
    if n and np.diff(grid).min() < gates.ROW_DB_TOL:
        raise ValueError(f"--db-step {args.db_step:g} puts grid points closer than "
                         f"{gates.ROW_DB_TOL:g} dB, which the basis table holds as one point")
    if len(set(map(_fmt, grid))) < len(grid):
        raise ValueError(f"--db-step {args.db_step:g} puts two grid points at one squeezing "
                         "as the CSVs print it")
    return grid


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_perr(p: float) -> str:
    return f"{p:.9e}"


def _open_out(path):
    with reporting_os_errors(f"write --out {path}"):
        return open(path, "w", newline="")


def _write_csv(path, header, rows):
    out = sys.stdout if path in (None, "-") else _open_out(path)
    try:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _plan_for(lattice, gate, db, table):
    """``table()`` loads the basis table; only non-QRL FFCZ plans call it."""
    r = lat.db_to_r(db)
    if gate == "FFCZ":
        return gates.cz_plan(lattice, db, table=None if lattice == "QRL" else table())
    if gate == "SWAP":
        if lattice != "DBSL":
            raise ValueError("the swap-gate cost analysis is a DBSL plan")
        return gates.dbsl_swap_plan(r)
    return gates.basis_for(lattice, gate, r)


class _NumericalFailure(Exception):
    """A search or a reduction that failed numerically, at a named point."""


@contextlib.contextmanager
def _failing_at(lattice, db: str):
    """Report a LinAlgError or FloatingPointError within as a failure at
    ``lattice`` and ``db`` dB, which :func:`main` exits 1 on."""
    try:
        yield
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise _NumericalFailure(f"{lattice} {db} dB: {exc}") from exc


def _realized_blocks(lattice, gate, grid, table):
    """(squeezings, stacked plan, its realization) per block of at most
    _BLOCK_POINTS grid points."""
    for i in range(0, len(grid), _BLOCK_POINTS):
        dbs = grid[i:i + _BLOCK_POINTS]
        plan = _plan_for(lattice, gate, np.array(dbs), table)
        span = _fmt(dbs[0]) if len(dbs) == 1 else f"{_fmt(dbs[0])}-{_fmt(dbs[-1])}"
        with _failing_at(lattice, span):
            result = gates.realize(plan)
        yield dbs, plan, result


def cmd_noise_curve(args) -> int:
    grid = _db_grid(args)
    table = functools.cache(gates.load_basis_table)
    rows = []
    for db in grid:
        _, cluster_var = gkp.resource_variances(lat.db_to_r(db))
        rows.append(["reference", "resource", _fmt(db), "p", _fmt(-db)])
        eff = 10.0 * math.log10(2.0 * cluster_var)
        rows.append(["reference", "effective", _fmt(db), "p", _fmt(eff)])
    for lattice in args.lattice:
        for gate in args.gate:
            for dbs, plan, result in _realized_blocks(lattice, gate, grid, table):
                cluster_var = lat.per_point(gkp.resource_variances, plan.r)[:, 1]
                sigma2 = noise_factors(result) * cluster_var[:, None]
                names = ["x", "p"] if sigma2.shape[-1] == 2 else ["x1", "x2", "p1", "p2"]
                for db, point in zip(dbs, sigma2):
                    for name, v in zip(names, point):
                        rows.append([lattice, gate, _fmt(db), name,
                                     _fmt(10.0 * math.log10(2.0 * v))])
    rows.sort(key=lambda row: (row[0], row[1], float(row[2]), row[3]))
    _write_csv(args.out, ["lattice", "gate", "squeezing_db", "quadrature",
                          "noise_variance_db"], rows)
    return EXIT_OK


def cmd_error_curve(args) -> int:
    grid = _db_grid(args)
    table = functools.cache(gates.load_basis_table)
    rows = []
    # noise-free Fourier-CZ: the spikes of perfect encoded states and ancillas
    ffcz = gates.target_symplectic("FFCZ")
    for db in grid:
        delta, _ = gkp.resource_variances(lat.db_to_r(db))
        baseline = gkp.error_probability(
            gkp.propagate_spikes(ffcz, np.zeros(4), delta), delta)
        rows.append(["baseline", "FFCZ", _fmt(db), _fmt_perr(baseline)])
    for lattice in args.lattice:
        for gate in args.gate:
            for dbs, plan, result in _realized_blocks(lattice, gate, grid, table):
                rows += [[lattice, gate, _fmt(db), _fmt_perr(p)]
                         for db, p in zip(dbs, gkp.gate_error_probability(plan, result))]
    rows.sort(key=lambda row: (row[0], row[1], float(row[2])))
    _write_csv(args.out, ["lattice", "gate", "squeezing_db", "perr"], rows)
    return EXIT_OK


def cmd_compare(args) -> int:
    grid = _db_grid(args)
    table = gates.load_basis_table()
    perr = {lattice: np.concatenate([
        gkp.gate_error_probability(plan, result)
        for _, plan, result in _realized_blocks(lattice, "FFCZ", grid, lambda: table)])
        for lattice in LATTICES}
    rows = [[lattice, _fmt(db), _fmt(p / ref)] for lattice in LATTICES
            for db, p, ref in zip(grid, perr[lattice], perr["DBSL"])]
    rows.sort(key=lambda row: (row[0], float(row[1])))
    _write_csv(args.out, ["lattice", "squeezing_db", "perr_ratio_vs_dbsl"], rows)
    return EXIT_OK


# An optimize run's continuation starts at the grid point nearest this.
ANCHOR_DB = 15.0


def cmd_optimize(args) -> int:
    """Build the table of every ``--lattice``, each one continuation, and write
    it to ``--out`` whole; no earlier table is read.  The grid point nearest
    ANCHOR_DB starts from the lattice's start in code (:func:`gates.cz_start`);
    the sweep goes up from it, then down, each point from the best angles just
    found next to it.  Every point runs the config's ``restarts`` starts, that
    warm start included; the seed draws only the others.  A point printed
    INFEASIBLE accepts no start: the run writes nothing, exit 1."""
    from . import optimizer  # only optimize needs it; keeps the curve commands' import lean

    grid = _db_grid(args)
    cfg = optimizer.OptimizerConfig()
    if args.config:
        with reporting_os_errors(f"read --config {args.config}"), open(args.config) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # malformed JSON or bytes that are not text
                raise ValueError(f"--config {args.config} is not valid JSON: {exc}") from exc
        cfg = optimizer.OptimizerConfig.from_dict(doc)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    try:  # refuse to overwrite a file that is not a basis table; its rows are not read
        gates.load_basis_table(args.out)
    except CacheMissError:
        pass
    anchor = min(range(len(grid)), key=lambda i: abs(grid[i] - ANCHOR_DB))
    rows = []
    for lattice in dict.fromkeys(args.lattice):
        section = {}
        for i in [*range(anchor, len(grid)), *range(anchor - 1, -1, -1)]:
            db, r = grid[i], lat.db_to_r(grid[i])
            near = section.get(i - 1 if i > anchor else i + 1)
            warm = np.array(near["angles"]) if near else gates.cz_start(lattice, r)
            with _failing_at(lattice, f"{db:g}"):
                res = optimizer.cz_search(lattice, r, cfg, warm_starts=[warm])
            print(f"{lattice} {db:g} dB: {'accepted' if res.accepted else 'INFEASIBLE'} "
                  f"residual={res.residual:.3e} perr={res.perr:.6e}", flush=True)
            section[i] = res.to_row(lattice, db)
        rows += section.values()
    if not all(row["accepted"] for row in rows):
        print("wrote nothing: a point is INFEASIBLE")
        return EXIT_VERIFY
    table = {"version": 1, "package": __version__,
             "entries": sorted(rows, key=lambda e: (e["lattice"], e["squeezing_db"]))}
    print(f"wrote {gates.save_basis_table(table, args.out)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """The fixed suite: the covariance oracle at VERIFY_TOL on the catalog at
    each r in VERIFY_R and on the CZ plan of every basis-table row, then the
    nine Wigner-limit checks.  Exit 1 unless every report passes."""
    from . import oracle  # only verify needs it; keeps the curve commands' import lean

    table = gates.load_basis_table()
    reports = [oracle.verify_plan(plan, tol=VERIFY_TOL)
               for r in VERIFY_R for plan in gates.iter_catalog(r)]
    for row in table["entries"]:
        plan = gates.cz_plan(row["lattice"], row["squeezing_db"], table=table)
        reports.append(oracle.verify_plan(plan, tol=VERIFY_TOL)
                       | {"plan": f"{row['lattice']}:FFCZ@{row['squeezing_db']:g}dB"})
    for lattice in ("DBSL", "BSL", "MBSL"):
        reports += [oracle.wigner_limit_check(lattice, r) for r in (0.5, 1.5)]
        reports.append(oracle.wigner_limit_check(lattice, 1.0, t_override=0.0))
    ok = all(rep["pass"] for rep in reports)
    print(json.dumps({"pass": ok, "reports": reports}, indent=1))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_dump_graph(args) -> int:
    if not math.isfinite(args.db):
        raise ValueError(f"--db must be finite, got {args.db:g}")
    if args.theta_c is not None and not math.isfinite(args.theta_c):
        raise ValueError(f"--theta-c must be finite, got {args.theta_c:g}")
    r = lat.db_to_r(args.db)
    params = lat.LatticeParams.from_r(args.lattice, r)
    build = lat.cz_region_graph if args.region == "cz" else lat.single_step_graph
    graph = build(params, parity=args.parity, theta_c=args.theta_c)
    text = lat.graph_to_json(graph, indent=1)
    if args.out in (None, "-"):
        print(text)
    else:
        with _open_out(args.out) as fh:
            fh.write(text)
    return EXIT_OK


def _add_grid_args(p, db_min=0.25, db_max=25.0, db_step=0.25):
    p.add_argument("--db-min", type=float, default=db_min)
    p.add_argument("--db-max", type=float, default=db_max)
    p.add_argument("--db-step", type=float, default=db_step)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cvmbqc",
        description="Gate noise and GKP error analysis on 2D CV cluster states")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("noise-curve", help="gate-noise variances vs squeezing (CSV)")
    p.add_argument("--lattice", nargs="+", default=list(LATTICES), choices=LATTICES)
    p.add_argument("--gate", nargs="+", default=["I", "F", "P1"],
                   choices=GATES + ("SWAP",))
    _add_grid_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_noise_curve)

    p = sub.add_parser("error-curve", help="GKP error probabilities vs squeezing (CSV)")
    p.add_argument("--lattice", nargs="+", default=list(LATTICES), choices=LATTICES)
    p.add_argument("--gate", nargs="+", default=list(GATES), choices=GATES)
    _add_grid_args(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_error_curve)

    p = sub.add_parser("compare", help="CZ error probability relative to the DBSL (CSV)")
    _add_grid_args(p, db_min=8.0, db_max=21.0, db_step=0.5)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("optimize", help="optimize CZ bases and write a basis table")
    p.add_argument("--lattice", nargs="+", required=True, choices=gates.CACHED_CZ_LATTICES,
                   help="the table's lattices; the QRL CZ plan is closed-form")
    _add_grid_args(p, db_min=15.0, db_max=15.0, db_step=0.5)
    p.add_argument("--config", help="JSON object with any of the optimizer keys "
                   "restarts (starts at every point, the warm start included; default 1) "
                   "and seed (draws the others); weight_grid is ignored")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True,
                   help="basis-table path, written whole, only once every point is accepted")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="the covariance oracle at 1e-9 on the gate catalog "
                       "and every basis-table row, and the Wigner limits (JSON)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump-graph", help="emit a region graph as JSON")
    p.add_argument("--lattice", required=True,
                   choices=("TELEPORT",) + tuple(LATTICES))
    p.add_argument("--db", type=float, default=15.0)
    p.add_argument("--parity", type=int, default=0, choices=(0, 1))
    p.add_argument("--theta-c", type=float, default=None)
    p.add_argument("--region", choices=("step", "cz"), default="step")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_dump_graph)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CacheMissError as exc:
        print(f"cache miss: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except _NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
