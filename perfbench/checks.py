"""Correctness checks for the benchmark's outputs.

Every check compares the program's output with a computation made apart from
it: the GKP error probability in the erfc/log1p form, gate targets built
from 2x2 blocks here, and the covariance oracle (``cvmbqc.oracle``), which
assembles each plan's circuit without the reduction engine.  No stored copy
of earlier output is used.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

ACCEPT_RESIDUAL = 1e-5  # |G - T|_1 acceptance of an optimized CZ basis
ORACLE_TOL = 1e-9
PERR_REL_TOL = 1e-9

# Fourier byproduct exponents (n, m) of the even-parity optimized CZ,
# T = (F^n + F^m) CZ(1), per lattice (paper, Sec. V).
FFCZ_EXPONENTS = {"DBSL": (1, 1), "BSL": (1, -1), "MBSL": (1, 1), "QRL": (-1, -1)}


# ------------------------------------------------------------------ formulas

def delta_of(db: float) -> float:
    """GKP spike variance e^{-2r}/2 at squeezing db."""
    return math.exp(-2.0 * db * math.log(10.0) / 20.0) / 2.0


def cluster_noise_of(db: float) -> float:
    """Cluster-momentum variance sech(2r)/2 at squeezing db."""
    r = db * math.log(10.0) / 20.0
    return 0.5 / math.cosh(2.0 * r)


def perr_exact(spikes, delta: float) -> float:
    """1 - prod_i erf(sqrt(pi) / (2 sqrt(2 (spike_i + delta)))), evaluated as
    -expm1(sum_i log1p(-erfc(.))) so that small probabilities keep their digits."""
    log_ok = sum(math.log1p(-math.erfc(math.sqrt(math.pi) / (2.0 * math.sqrt(2.0 * (s + delta)))))
                 for s in spikes)
    return -math.expm1(log_ok)


def perr_cancelling(spikes, delta: float) -> float:
    """The same probability as 1 - prod(erf), which cancels at high squeezing."""
    prod = 1.0
    for s in spikes:
        prod *= math.erf(math.sqrt(math.pi) / (2.0 * math.sqrt(2.0 * (s + delta))))
    return 1.0 - prod


def gate_spikes(G, N, db: float):
    """Spike variances delta * rowsum(G^2) + sech(2r)/2 * rowsum(N^2)."""
    return (delta_of(db) * (np.asarray(G) ** 2).sum(axis=1)
            + cluster_noise_of(db) * (np.asarray(N) ** 2).sum(axis=1))


def _rot(quarter_turns: int) -> np.ndarray:
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][quarter_turns % 4]
    return np.array([[c, s], [-s, c]], dtype=float)


def ffcz_target(lattice: str) -> np.ndarray:
    """(F^n + F^m) CZ(1) in xxpp order."""
    n, m = FFCZ_EXPONENTS[lattice]
    ff = np.zeros((4, 4))
    for mode, k in ((0, n), (1, m)):
        idx = [mode, 2 + mode]
        ff[np.ix_(idx, idx)] = _rot(k)
    cz = np.eye(4)
    cz[2, 1] = cz[3, 0] = 1.0
    return ff @ cz


# ------------------------------------------------------------- CZ searches

def check_cz(lattice: str, db: float, angles, perr: float, accepted: bool) -> list:
    """Problems with one optimized CZ basis; an empty list means it passes.

    The basis must be accepted, pass the oracle at 1e-9, implement the target
    to |G - T|_1 < 1e-5, carry the reported perr to 1e-9 relative, and stay
    above the noise-free FFCZ value and the closed-form QRL CZ value.
    """
    from cvmbqc import gates, oracle

    problems = []
    if not accepted:
        return [f"{lattice} {db:g} dB: search returned no accepted basis"]
    entry = {"lattice": lattice, "squeezing_db": db, "angles": [float(a) for a in angles],
             "accepted": True}
    plan = gates.cz_plan(lattice, db, table={"entries": [entry]})
    rep = oracle.verify_plan(plan, tol=ORACLE_TOL)
    if not rep["pass"]:
        problems.append(f"{lattice} {db:g} dB: oracle rejects the plan: {rep}")
    res = gates.realize(plan)
    target = ffcz_target(lattice)
    resid = float(np.abs(res.G - target).sum())
    if not resid < ACCEPT_RESIDUAL:
        problems.append(f"{lattice} {db:g} dB: residual {resid:.3e} >= {ACCEPT_RESIDUAL}")
    delta = delta_of(db)
    own = perr_exact(gate_spikes(res.G, res.N, db), delta)
    if not abs(own - perr) <= PERR_REL_TOL * own:
        problems.append(f"{lattice} {db:g} dB: reported perr {perr!r} vs formula {own!r}")
    base = perr_exact(delta * (target ** 2).sum(axis=1), delta)
    if not perr > base:
        problems.append(f"{lattice} {db:g} dB: perr {perr!r} not above noise-free {base!r}")
    qrl_plan = gates.qrl_cz_plan(db * math.log(10.0) / 20.0)
    if not oracle.verify_plan(qrl_plan, tol=ORACLE_TOL)["pass"]:
        problems.append(f"QRL {db:g} dB: oracle rejects the closed-form CZ plan")
    qrl = gates.realize(qrl_plan)
    qrl_perr = perr_exact(gate_spikes(qrl.G, qrl.N, db), delta)
    if not perr > qrl_perr:
        problems.append(f"{lattice} {db:g} dB: perr {perr!r} not above QRL CZ {qrl_perr!r}")
    return problems


def check_table(table: dict, lattice: str, dbs) -> list:
    """A written basis table must hold exactly one row per requested point."""
    rows = table.get("entries", [])
    problems = []
    for db in dbs:
        n = sum(1 for row in rows
                if row["lattice"] == lattice and abs(row["squeezing_db"] - db) < 1e-9)
        if n != 1:
            problems.append(f"table has {n} rows at {db:g} dB, expected 1")
    if len(rows) != len(dbs):
        problems.append(f"table has {len(rows)} rows, expected {len(dbs)}")
    return problems


# ------------------------------------------------------------------ curves

def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def agrees(text: str, ref: float) -> bool:
    """Whether a printed 10-significant-digit value is ``ref`` rounded to that
    precision (half a unit of the last digit, plus 1e-12 relative arithmetic)."""
    value = float(text)
    if ref == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 9)
    return abs(value - ref) <= 0.5 * unit + 1e-12 * abs(ref)


def _plan(lattice, gate, db):
    from cvmbqc import gates
    r = db * math.log(10.0) / 20.0
    if gate == "FFCZ":
        return gates.qrl_cz_plan(r)
    if gate == "SWAP":
        return gates.dbsl_swap_plan(r)
    return gates.basis_for(lattice, gate, r)


class PlanBook:
    """Realized (G, N) per (lattice, gate, db), computed once per run."""

    def __init__(self):
        self._cache = {}

    def gn(self, lattice, gate, db):
        key = (lattice, gate, db)
        if key not in self._cache:
            from cvmbqc import gates
            res = gates.realize(_plan(lattice, gate, db))
            self._cache[key] = (res.G, res.N)
        return self._cache[key]


def expected_rows(kind: str, grid, lattices, gate_list):
    """Row keys a curve CSV must hold: (lattice, gate, db, quadrature) for a
    noise curve, (lattice, gate, db) for an error curve."""
    keys = []
    for db in grid:
        if kind == "noise":
            keys += [("reference", "resource", db, "p"), ("reference", "effective", db, "p")]
        else:
            keys.append(("baseline", "FFCZ", db))
        for lattice in lattices:
            for gate in gate_list:
                if kind == "error":
                    keys.append((lattice, gate, db))
                elif gate in ("FFCZ", "SWAP"):
                    keys += [(lattice, gate, db, q) for q in ("x1", "x2", "p1", "p2")]
                else:
                    keys += [(lattice, gate, db, q) for q in ("x", "p")]
    return keys


def check_curve(kind: str, text: str, grid, lattices, gate_list, book: PlanBook):
    """Check one curve CSV row by row.

    Returns ``(n_rows, failed_keys, problems)``.  A perr row that misses the
    exact value but equals the cancelling 1 - prod(erf) form to the printed
    precision is a failed operation (the known precision fault); any other
    mismatch is a problem that makes the run incorrect.
    """
    header, rows = parse_csv(text)
    want_header = (["lattice", "gate", "squeezing_db", "quadrature", "noise_variance_db"]
                   if kind == "noise" else ["lattice", "gate", "squeezing_db", "perr"])
    problems = []
    if header != want_header:
        problems.append(f"{kind} curve header {header}")
    want = expected_rows(kind, grid, lattices, gate_list)
    by_db = {f"{db:.10g}": db for db in grid}
    got = {}
    for row in rows:
        if row[2] not in by_db:
            problems.append(f"{kind} curve row off the grid: {row}")
            continue
        key = tuple(row[:2]) + (by_db[row[2]],) + (tuple(row[3:4]) if kind == "noise" else ())
        if key in got:
            problems.append(f"{kind} curve duplicate row {row}")
        got[key] = row[-1]
    if len(rows) != len(want) or set(got) != set(want):
        problems.append(f"{kind} curve has {len(rows)} rows, expected {len(want)}")
        return len(rows), [], problems
    failed = []
    for key in want:
        text_value = got[key]
        if kind == "noise":
            ref = _noise_db(key, book)
            if not agrees(text_value, ref):
                problems.append(f"noise row {key}: printed {text_value}, recomputed {ref!r}")
            continue
        exact, cancelling = _perr_forms(key, book)
        if agrees(text_value, exact):
            continue
        if agrees(text_value, cancelling):
            failed.append(key)
        else:
            problems.append(f"perr row {key}: printed {text_value}, recomputed {exact!r}")
    return len(rows), failed, problems


def _noise_db(key, book):
    lattice, gate, db, quad = key
    if lattice == "reference":
        return -db if gate == "resource" else 10.0 * math.log10(2.0 * cluster_noise_of(db))
    _, N = book.gn(lattice, gate, db)
    names = ["x", "p"] if N.shape[0] == 2 else ["x1", "x2", "p1", "p2"]
    var = cluster_noise_of(db) * float((N[names.index(quad)] ** 2).sum())
    return 10.0 * math.log10(2.0 * var)


def _perr_forms(key, book):
    lattice, gate, db = key
    delta = delta_of(db)
    if lattice == "baseline":
        spikes = delta * (ffcz_target("DBSL") ** 2).sum(axis=1)
    else:
        spikes = gate_spikes(*book.gn(lattice, gate, db), db)
    return perr_exact(spikes, delta), perr_cancelling(spikes, delta)


def check_oracle_samples(samples) -> list:
    """Run the covariance oracle on sampled (lattice, gate, db) plans."""
    from cvmbqc import oracle
    problems = []
    for lattice, gate, db in samples:
        rep = oracle.verify_plan(_plan(lattice, gate, db), tol=ORACLE_TOL)
        if not rep["pass"]:
            problems.append(f"oracle rejects {lattice} {gate} at {db:g} dB: {rep}")
    return problems
