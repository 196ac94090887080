"""Generate the shipped optimized-CZ basis table.

Forward continuation sweep over the squeezing grid, then alternating
backward/forward refinement sweeps that reseed each point from its
neighbours and keep the lower error probability.  Each run regenerates one
section of the versioned JSON table consumed by the gates module (the rows of
one lattice, or the variable control-basis rows of the DBSL) and keeps every
other section of the table as it is.

The table is rewritten after every completed (sweep, point); an interrupted
section is marked in the table's ``in_progress`` header and running the same
command again resumes it.  Seeds are fixed per (sweep, point), so a resumed
run gives the same rows as an uninterrupted one.  Runs of different sections
may share one table file: each write re-reads the table under a lock.

Usage: python scripts/make_cache.py {DBSL|BSL|MBSL|THETAC} [table.json]

The table defaults to the package table (``gates.default_table_path()``).
THETAC seeds from the fixed-basis DBSL rows, so generate DBSL first.
"""

import argparse
import fcntl
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cvmbqc import gates, lattice as lat, optimizer  # noqa: E402
from cvmbqc.errors import CacheMissError  # noqa: E402

GRID = [round(1.0 + 0.5 * i, 2) for i in range(49)]       # 1..25 dB
THETAC_GRID = [float(d) for d in range(5, 26)]            # 5..25 dB
BASE_SEED = 20200527

# (restarts, seed offset, reverse) per sweep; the seed of point i of a sweep
# is BASE_SEED + offset + i
FIXED_SCHEDULE = ((48, 0, False), (8, 1000, True), (8, 2000, False), (8, 3000, True))
THETAC_SCHEDULE = ((32, 5000, False), (8, 5100, True), (8, 5200, False))


def _cfg(restarts, seed):
    return optimizer.OptimizerConfig(restarts=restarts, seed=seed)


def _section_name(lattice, variable_theta_c):
    return "THETAC" if variable_theta_c else lattice


def _in_section(row, lattice, variable_theta_c):
    return (row["lattice"] == lattice
            and bool(row.get("variable_theta_c")) == variable_theta_c)


def _result(row):
    return optimizer.OptResult(np.array(row["angles"], dtype=float), row["residual"],
                               row["perr"], row["accepted"], 0, row.get("theta_c"))


def _load(path):
    try:
        return gates.load_basis_table(path)
    except CacheMissError:
        return {"version": 1, "seed": BASE_SEED, "entries": []}


def _log(msg):
    print(msg, flush=True)


def _update(path, lattice, variable_theta_c, rows, state):
    """Replace one section's rows and progress marker in the table at ``path``.

    The table is re-read under a lock, so runs of different sections can
    share one table file.
    """
    name = _section_name(lattice, variable_theta_c)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{path}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        table = _load(path)
        table["entries"] = sorted(
            [row for row in table["entries"]
             if not _in_section(row, lattice, variable_theta_c)] + rows,
            key=lambda e: (e["lattice"], bool(e.get("variable_theta_c")), e["squeezing_db"]))
        progress = table.pop("in_progress", {})
        progress.pop(name, None)
        if state is not None:
            progress[name] = state
        if progress:
            table["in_progress"] = progress
        gates.save_basis_table(table, path)


def run_section(path, lattice, variable_theta_c, grid, schedule, solve, log=_log):
    """Run (or resume) the sweep schedule of one table section.

    ``solve(i, results, config)`` optimizes grid point ``i`` given the current
    per-dB results.  A point keeps the new result only when it is accepted and
    beats the current one.  Returns the section's rows.
    """
    path = Path(path)
    name = _section_name(lattice, variable_theta_c)
    table = _load(path)
    state = table.get("in_progress", {}).get(name)
    if state is None:
        state = {"sweep": 0, "points": 0, "seconds": 0.0}
        results = {}
    else:
        results = {row["squeezing_db"]: _result(row) for row in table["entries"]
                   if _in_section(row, lattice, variable_theta_c)}
        log(f"{name}: resuming at sweep {state['sweep']} point {state['points']}")
    t0 = time.time() - state["seconds"]

    def rows(dbs):
        return [results[db].to_row(lattice, db, variable_theta_c) for db in dbs]

    for k, (restarts, offset, reverse) in enumerate(schedule):
        order = list(enumerate(grid))[::-1] if reverse else list(enumerate(grid))
        for n, (i, db) in enumerate(order):
            if (k, n) < (state["sweep"], state["points"]):
                continue
            res = solve(i, results, _cfg(restarts, BASE_SEED + offset + i))
            cur = results.get(db)
            if cur is None or (res.accepted and (not cur.accepted or res.perr < cur.perr)):
                results[db] = res
            state = {"sweep": k, "points": n + 1, "seconds": round(time.time() - t0, 1)}
            _update(path, lattice, variable_theta_c, rows(sorted(results)), state)
            log(f"  sweep {k} (r={restarts},{'bwd' if reverse else 'fwd'}) {name} "
                f"{db:5.1f} dB -> {results[db].perr:.6e}"
                f"{'' if results[db].accepted else ' INFEASIBLE'}")
    out = rows(grid)
    _update(path, lattice, variable_theta_c, out, None)
    n_bad = sum(not row["accepted"] for row in out)
    log(f"{name}: {n_bad} infeasible of {len(grid)}  [{time.time() - t0:.0f}s]")
    return out


def generate(lattice, path):
    def solve(i, results, cfg):
        warm = [results[GRID[j]].angles for j in (i - 1, i + 1, i)
                if 0 <= j < len(GRID) and GRID[j] in results and results[GRID[j]].accepted]
        return optimizer.cz_search(lattice, lat.db_to_r(GRID[i]), cfg, warm_starts=warm)

    return run_section(path, lattice, False, GRID, FIXED_SCHEDULE, solve)


def fixed_dbsl_rows(table):
    """Fixed-basis DBSL rows on the THETAC grid; CacheMissError if any is absent."""
    fixed = {row["squeezing_db"]: row for row in table["entries"]
             if _in_section(row, "DBSL", False)}
    missing = [db for db in THETAC_GRID if db not in fixed]
    if missing or "DBSL" in table.get("in_progress", {}):
        what = (f"missing {', '.join(f'{db:g}' for db in missing)} dB" if missing
                else "still in progress")
        raise CacheMissError(
            "the variable theta_c sweep seeds from the fixed-basis DBSL rows at "
            f"{THETAC_GRID[0]:g}-{THETAC_GRID[-1]:g} dB, but the DBSL section is "
            f"{what}; run `python scripts/make_cache.py DBSL` first")
    return fixed


def generate_thetac(path):
    fixed = fixed_dbsl_rows(_load(path))

    def solve(i, results, cfg):
        warm = []
        for j in (i - 1, i + 1):
            dj = THETAC_GRID[j] if 0 <= j < len(THETAC_GRID) else None
            if dj in results and results[dj].accepted:
                warm.append(np.append(results[dj].angles, results[dj].theta_c))
        db = THETAC_GRID[i]
        if fixed[db].get("accepted", True):
            warm.append(np.append(np.array(fixed[db]["angles"]), np.pi / 4))
        if db in results and results[db].accepted:
            warm.append(np.append(results[db].angles, results[db].theta_c))
        return optimizer.cz_search("DBSL", lat.db_to_r(db), cfg, warm_starts=warm,
                                   variable_theta_c=True)

    return run_section(path, "DBSL", True, THETAC_GRID, THETAC_SCHEDULE, solve)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("section", choices=("DBSL", "BSL", "MBSL", "THETAC"))
    ap.add_argument("table", nargs="?", default=None,
                    help="basis-table path (default: the package table)")
    args = ap.parse_args(argv)
    path = Path(args.table) if args.table else gates.default_table_path()
    if args.section == "THETAC":
        generate_thetac(path)
    else:
        generate(args.section, path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
