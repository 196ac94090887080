"""Command-line interface: reproduce the comparison curves as CSV artifacts,
regenerate the optimized-basis cache, and run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cache miss.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, gates, gkp, lattice as lat
from .errors import CacheMissError
from .reduction import noise_factors

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CACHE = 3

LATTICES = ("DBSL", "BSL", "MBSL", "QRL")
GATES = ("I", "F", "P1", "FFCZ")
MAX_GRID_POINTS = 10 ** 6
# The curve commands realize this many grid points at a time as one stacked
# plan; larger blocks raise the peak memory without running faster.
_BLOCK_POINTS = 25


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
    return [args.db_min + i * args.db_step for i in range(n + 1)]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_perr(p: float) -> str:
    return f"{p:.9e}"


def _write_csv(path, header, rows):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
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


def _stacked_plans(lattice, gate, grid, table):
    """(squeezings, stacked plan) per block of at most _BLOCK_POINTS grid points."""
    for i in range(0, len(grid), _BLOCK_POINTS):
        dbs = grid[i:i + _BLOCK_POINTS]
        yield dbs, _plan_for(lattice, gate, np.array(dbs), table)


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
            for dbs, plan in _stacked_plans(lattice, gate, grid, table):
                cluster_var = lat.per_point(gkp.resource_variances, plan.r)[:, 1]
                sigma2 = noise_factors(gates.realize(plan)) * cluster_var[:, None]
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
            for dbs, plan in _stacked_plans(lattice, gate, grid, table):
                rows += [[lattice, gate, _fmt(db), _fmt_perr(p)]
                         for db, p in zip(dbs, gkp.gate_error_probability(plan))]
    rows.sort(key=lambda row: (row[0], row[1], float(row[2])))
    _write_csv(args.out, ["lattice", "gate", "squeezing_db", "perr"], rows)
    return EXIT_OK


def cmd_compare(args) -> int:
    grid = _db_grid(args)
    table = gates.load_basis_table()
    perr = {lattice: np.concatenate([
        gkp.gate_error_probability(plan)
        for _, plan in _stacked_plans(lattice, "FFCZ", grid, lambda: table)])
        for lattice in LATTICES}
    rows = [[lattice, _fmt(db), _fmt(p / ref)] for lattice in LATTICES
            for db, p, ref in zip(grid, perr[lattice], perr["DBSL"])]
    rows.sort(key=lambda row: (row[0], float(row[1])))
    _write_csv(args.out, ["lattice", "squeezing_db", "perr_ratio_vs_dbsl"], rows)
    return EXIT_OK


def _warm_starts(args, db):
    """Numerical continuation: the accepted angles of this section's rows at
    db - step, db + step and db, then, for a variable theta_c run, the
    fixed-basis row at db, all read from the table on disk."""
    try:
        table = gates.load_basis_table(args.out)
    except CacheMissError:
        return []
    keys = [(d, args.variable_theta_c) for d in (db - args.db_step, db + args.db_step, db)]
    if args.variable_theta_c:
        keys.append((db, False))
    rows = [gates.find_row(table, args.lattice, d, vtc) for d, vtc in keys]
    return [np.array(row["angles"] + ([row["theta_c"]] if "theta_c" in row else []))
            for row in rows if row]


def cmd_optimize(args) -> int:
    """Optimize each grid point and write its row to the table as soon as it
    is found.  Rerunning from the first missing point resumes a run; rerunning
    a whole grid can only improve its accepted rows, because every search
    scores the row's own angles as a warm start."""
    from . import optimizer  # only optimize needs it; keeps the curve commands' import lean

    grid = _db_grid(args)
    cfg = optimizer.OptimizerConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --config {args.config}: {exc.strerror}") from exc
        except ValueError as exc:  # malformed JSON or bytes that are not text
            raise ValueError(f"--config {args.config} is not valid JSON: {exc}") from exc
        cfg = optimizer.OptimizerConfig.from_dict(doc)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    for db in grid:
        warm = _warm_starts(args, db)
        try:
            res = optimizer.cz_search(args.lattice, lat.db_to_r(db), cfg, warm_starts=warm,
                                      variable_theta_c=args.variable_theta_c)
        except ValueError as exc:
            print(f"{args.lattice} {db:g} dB: {exc}", file=sys.stderr)
            return EXIT_USAGE
        flag = "accepted" if res.accepted else "INFEASIBLE"
        print(f"{args.lattice} {db:g} dB: {flag} residual={res.residual:.3e} "
              f"perr={res.perr:.6e}", flush=True)
        path = gates.update_basis_table(
            res.to_row(args.lattice, db, args.variable_theta_c), args.out)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle  # only verify needs it; keeps the curve commands' import lean

    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol:g}")
    if args.cache_stride < 1:
        raise ValueError(f"--cache-stride must be at least 1, got {args.cache_stride}")
    for r in args.r:
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"--r must be positive and finite, got {r:g}")
    reports = []
    ok = True
    for r in args.r:
        for plan in gates.iter_catalog(r):
            rep = oracle.verify_plan(plan, tol=args.tol)
            reports.append(rep)
            ok &= rep["pass"]
    table = gates.load_basis_table()
    # every row a CZ plan is built from, with or without an "accepted" key
    rows = [row for row in table["entries"] if gates.find_row(
        table, row["lattice"], row["squeezing_db"], bool(row.get("variable_theta_c"))) is row]
    for row in rows[::args.cache_stride]:
        vtc = bool(row.get("variable_theta_c"))
        plan = gates.cz_plan(row["lattice"], row["squeezing_db"], table=table,
                             variable_theta_c=vtc)
        rep = oracle.verify_plan(plan, tol=args.tol)
        rep["plan"] = (f"{row['lattice']}:FFCZ{'(theta_c)' if vtc else ''}"
                       f"@{row['squeezing_db']:g}dB")
        reports.append(rep)
        ok &= rep["pass"]
    for lattice in ("DBSL", "BSL", "MBSL"):
        for r in (0.5, 1.5):
            rep = oracle.wigner_limit_check(lattice, r)
            reports.append(rep)
            ok &= rep["pass"]
        rep = oracle.wigner_limit_check(lattice, 1.0, t_override=0.0)
        reports.append(rep)
        ok &= rep["pass"]
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
        with open(args.out, "w") as fh:
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

    p = sub.add_parser("optimize", help="optimize CZ bases and update the cache")
    p.add_argument("--lattice", required=True, choices=gates.CACHED_CZ_LATTICES,
                   help="the QRL CZ plan is closed-form and needs no table")
    _add_grid_args(p, db_min=15.0, db_max=15.0, db_step=0.5)
    p.add_argument("--config", help="JSON object with any of the optimizer keys "
                   "restarts and seed; weight_grid is accepted and ignored")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variable-theta-c", action="store_true")
    p.add_argument("--out", default=None,
                   help="basis-table path (default: the active cache location)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--r", nargs="+", type=float, default=[0.25, 0.5, 1.0, 1.5, 2.0])
    p.add_argument("--cache-stride", type=int, default=8,
                   help="verify every Nth cached CZ row (1 = all)")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
