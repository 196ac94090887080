"""Gate plans: closed-form basis settings per lattice plus the optimizer-backed
controlled-Z cache.

A plan is a tuple of steps, each one :class:`PlanTrack` (region graph, basis,
kept computation modes).  Realizing a plan reduces every step, keeps its
computation modes, and chains the steps, so the combined noise matrix follows
the two-step composition rule N = [G2 N1 | N2].  Every controlled-Z plan, the
closed-form QRL and DBSL ones included, is one step on its lattice's
:func:`cz_region`; :func:`cz_plan` serves the DBSL one from the table too.
Every plan constructor takes the squeezing as a number or an array; an
array gives one plan for the whole block, each step one stacked region graph
with a basis that has r's axes in front, which :func:`realize` reduces in one
pass per step.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lattice as lat
from . import symplectic as sp
from .errors import CacheMissError, reporting_os_errors
from .reduction import GateResult, chain, reduce, restrict

__all__ = [
    "GatePlan",
    "PlanTrack",
    "realize",
    "target_symplectic",
    "cz_region",
    "cz_region_plan",
    "basis_for",
    "qrl_cz_angles",
    "qrl_cz_plan",
    "dbsl_cz_angles",
    "dbsl_cz_plan",
    "mbsl_cz_angles",
    "BSL_CZ_START",
    "cz_start",
    "dbsl_swap_plan",
    "cz_plan",
    "iter_catalog",
    "load_basis_table",
    "save_basis_table",
    "find_row",
    "default_table_path",
]

SINGLE_MODE_GATES = ("I", "F", "P1")

# Lattices whose CZ basis is read from the table; the QRL CZ is closed-form.
CACHED_CZ_LATTICES = ("DBSL", "BSL", "MBSL")

# Fourier byproduct exponents (n, m) of the (F^n x F^m) CZ(1) that the
# even-parity CZ region implements per lattice.
FFCZ_EXPONENTS = {"DBSL": (1, 1), "BSL": (1, -1), "MBSL": (1, 1), "QRL": (-1, -1)}

# Two squeezings (in dB) closer than this are one point of the basis table.
ROW_DB_TOL = 1e-9

# Every CZ region keeps these two computation modes; the QRL region's
# further inputs and outputs are dummy paths.
CZ_KEEP = (0, 1)


@dataclass(frozen=True)
class PlanTrack:
    """One plan step: its region graph, its basis (the graph's full_basis) and
    ``keep``, its computation modes' positions among inputs and outputs (None: all)."""

    graph: lat.ComputationGraph
    angles: np.ndarray
    keep: tuple | None = None


@dataclass(frozen=True)
class GatePlan:
    lattice: str
    gate_id: str
    r: float  # an array of squeezings in a stacked plan
    steps: tuple  # of PlanTracks, one per step
    target: np.ndarray


def realize(plan: GatePlan) -> GateResult:
    """Reduce, restrict, and chain all plan steps into one GateResult; a
    stacked plan gives a stacked result."""
    combined = None
    for track in plan.steps:
        res = reduce(track.graph, track.angles)
        if track.keep is not None:
            res = restrict(res, track.keep, track.keep)
        combined = res if combined is None else chain(combined, res)
    return combined


def _fourier_byproduct(n: int, m: int) -> np.ndarray:
    """The two-mode Fourier byproduct F^n (+) F^m."""
    return (sp.embed(sp.rotation(n * math.pi / 2), [0], 2)
            @ sp.embed(sp.rotation(m * math.pi / 2), [1], 2))


@functools.cache
def target_symplectic(gate_id: str, signs=(1, 1)) -> np.ndarray:
    """Symplectic matrix of a target gate; ``signs`` are the Fourier exponents
    (n, m) for the FFCZ family, as a tuple.  One read-only array per
    ``(gate_id, signs)``, built once."""
    if gate_id == "I":
        x = sp.identity()
    elif gate_id == "F":
        x = sp.rotation(math.pi / 2)
    elif gate_id == "P1":
        x = sp.shear(1.0)
    elif gate_id == "FFCZ":
        x = _fourier_byproduct(*signs) @ sp.cz(1.0)
    elif gate_id == "SWAP":
        x = np.zeros((4, 4))
        x[0, 1] = x[1, 0] = x[2, 3] = x[3, 2] = 1.0
    else:
        raise ValueError(f"unknown gate id {gate_id!r}")
    x.flags.writeable = False
    return x


def cz_region(lattice: str, r, theta_c=None) -> tuple:
    """The even-parity CZ region of ``lattice`` at squeezing r and control
    basis theta_c (default: the lattice's), both stacked for arrays of one
    shape, and the Fourier-CZ target it implements: (graph, target)."""
    lat.check_squeezing(r)
    graph = lat.cz_region_graph(lat.LatticeParams.from_r(lattice, r), theta_c=theta_c)
    return graph, target_symplectic("FFCZ", FFCZ_EXPONENTS[lattice])


def _step_basis(graph, theta_plus, theta_minus):
    """Basis for one single-mode step with theta+- = theta_in +- theta_partner
    on its free modes, the input-side ones first: two of each on the QRL,
    where equal angles apply one gate to both computation modes."""
    h = len(graph.free_modes) // 2
    return graph.full_basis([0.5 * (theta_plus + theta_minus)] * h
                            + [0.5 * (theta_plus - theta_minus)] * h)


def _single_mode_sums(lattice, gate_id, r, parity):
    """Published (theta+, theta-) tuples per step for the I, F, P(1) gates."""
    th = math.tanh(2.0 * r)
    sgn = -1.0 if parity else 1.0
    if lattice == "DBSL":
        tp_inv = th ** -2
        if gate_id == "I":
            return [(0.0, sgn * 2 * math.atan(tp_inv))]
        if gate_id == "F":
            return [(math.pi / 2, math.pi / 2), (0.0, 2 * math.atan(th ** -4))]
    elif lattice == "BSL":
        if gate_id == "I":
            return [(0.0, -sgn * 2 * math.atan(th ** -2))]
        if gate_id == "F":
            return [(math.pi / 2, math.pi / 2), (0.0, 2 * math.atan(th ** -4))]
    elif lattice == "MBSL":
        if gate_id == "I":
            return [(0.0, 2 * math.atan(th ** -1 / math.sqrt(2.0)))]
        if gate_id == "F":
            return [(math.pi / 2, math.pi / 2), (0.0, 2 * math.atan(th ** -2 / 2.0))]
    elif lattice == "QRL":
        if gate_id == "I":
            return [(0.0, 2 * math.atan(th ** -1))]
        if gate_id == "F":
            return [(math.pi / 2, math.pi / 2), (0.0, 2 * math.atan(th ** -2))]
    elif lattice == "TELEPORT":
        t = th
        if gate_id == "I":
            return [(0.0, 2 * math.atan(1.0 / t))]
        if gate_id == "F":
            return [(math.pi / 2, math.pi / 2), (0.0, 2 * math.atan(t ** -2))]
    if gate_id == "P1":
        a2 = math.atan(2.0)
        return [(a2, -a2), (math.pi / 2, math.pi / 2)]
    raise ValueError(f"no closed-form basis for gate {gate_id!r} on {lattice!r}")


def basis_for(lattice: str, gate_id: str, r, parity: int = 0) -> GatePlan:
    """Closed-form plan for the single-mode gate set on any built-in lattice,
    at squeezing r or, stacked, at each r of an array."""
    if gate_id not in SINGLE_MODE_GATES:
        raise ValueError(f"unsupported (lattice, gate) = ({lattice!r}, {gate_id!r}); "
                         "CZ plans come from qrl_cz_plan or the optimizer cache")
    lat.check_squeezing(r)
    keep = (0,) if lattice == "QRL" else None  # one computation mode of the macronode
    # every step runs on the one graph
    graph = lat.single_step_graph(lat.LatticeParams.from_r(lattice, r), parity=parity)
    # (theta+, theta-) per step, with r's axes in front
    sums = np.asarray(lat.per_point(
        lambda x: _single_mode_sums(lattice, gate_id, x, parity), r))
    steps = tuple(PlanTrack(graph, _step_basis(graph, step[..., 0], step[..., 1]), keep)
                  for step in np.moveaxis(sums, -2, 0))
    return GatePlan(lattice, gate_id, r, steps, target_symplectic(gate_id))


def cz_region_plan(lattice: str, r, free_angles, theta_c=None) -> GatePlan:
    """One-step Fourier-CZ plan on the :func:`cz_region` of ``lattice``."""
    graph, target = cz_region(lattice, r, theta_c)
    basis = graph.full_basis(free_angles)
    return GatePlan(lattice, "FFCZ", r, (PlanTrack(graph, basis, CZ_KEEP),), target)


def qrl_cz_angles(r) -> tuple:
    """Free angles of the QRL CZ region at squeezing r; at an array of
    squeezings, one array per angle.

    The coupling device measures (pi/2 + atan 1/2, 0, pi/2 - atan 1/2, 0); each
    device an output path meets next applies the squeezing compensation
    S(tanh 2r)^-1 with (a, a, -a, -a), a = atan(tanh(2r)^-2).
    """
    a = lat.per_point(lambda x: math.atan(math.tanh(2.0 * x) ** -2), r)
    return (math.pi / 2 + math.atan(0.5), 0.0, math.pi / 2 - math.atan(0.5), 0.0,
            a, a, -a, -a, a, a, -a, -a)


def qrl_cz_plan(r) -> GatePlan:
    """Closed-form QRL plan: one coupling macronode, then a squeezing
    compensation on each output path, all in the QRL CZ region."""
    lat.check_squeezing(r)
    return cz_region_plan("QRL", r, qrl_cz_angles(r))


def dbsl_cz_angles(r, theta_c=math.pi / 4) -> tuple:
    """Free angles of the DBSL CZ region at squeezing r and control basis
    theta_c, arrays broadcast: (-pi/4, pi/4, -pi/4, pi/4, a, 0, b, theta_c, a, 0)
    with t = tan theta_c, y = t tanh(2r)^2, a = atan2(2, y^2) and
    b = atan2(t (y^2 - 4y - 4), y^2 + 4y - 4).  Read off the optimized table and
    checked by the tests; the mirror root (angles 0-3 negated, the pairs (4, 5),
    (6, 7) and (8, 9) swapped) has the same perr.  At pi/4 it is the table
    build's DBSL start (:func:`cz_start`)."""
    t = np.tan(theta_c)
    y = t * lat.per_point(lambda x: math.tanh(2.0 * x) ** 2, r)
    a, b = np.arctan2(2.0, y * y), np.arctan2(t * (y * y - 4 * y - 4), y * y + 4 * y - 4)
    return (-math.pi / 4, math.pi / 4, -math.pi / 4, math.pi / 4, a, 0.0, b, theta_c, a, 0.0)


def dbsl_cz_plan(r, theta_c=math.pi / 4) -> GatePlan:
    """Closed-form DBSL plan of :func:`dbsl_cz_angles`, stacked for an array
    of squeezings; theta_c is a number or an array of r's shape."""
    return cz_region_plan("DBSL", r, dbsl_cz_angles(r, theta_c), theta_c)


def mbsl_cz_angles(r) -> tuple:
    """Free angles of the MBSL CZ region at squeezing r, arrays broadcast:
    (pi/4, -pi/4, pi/2, 0, -a, a, pi/2, 0, c, -c, pi/2, pi/2) with
    a = atan2(1, sqrt(2) tanh 2r) and c = atan2(1, 2 tanh(2r)^2).  Read off
    the optimized table and checked by the tests; it is the optimum below
    24.1 dB and a saddle of perr on the root set above it."""
    th = lat.per_point(lambda x: math.tanh(2.0 * x), r)
    a, c = np.arctan2(1.0, math.sqrt(2.0) * th), np.arctan2(1.0, 2.0 * th * th)
    q = math.pi / 4
    return (q, -q, 2 * q, 0.0, -a, a, 2 * q, 0.0, c, -c, 2 * q, 2 * q)


# The table build's BSL start at every squeezing: the 15 dB row rounded to
# one decimal, from which the continuation reaches every row.
BSL_CZ_START = (-0.4, 1.1, -0.4, 1.1, 0.4, 1.3, -0.4, 1.1, 1.1, -0.4, 0.8, 0.8)


def cz_start(lattice: str, r: float) -> np.ndarray:
    """The one start in code of the table build's CZ search on ``lattice`` at
    squeezing r: the DBSL and MBSL closed forms, and BSL_CZ_START."""
    angles = {"DBSL": dbsl_cz_angles, "BSL": lambda _: BSL_CZ_START, "MBSL": mbsl_cz_angles}
    return np.array(angles[lattice](r), dtype=float)


DBSL_SWAP_FREE_ANGLES = (math.pi / 4, -math.pi / 4, math.pi / 4, -math.pi / 4,
                         0.0, math.pi / 2, math.pi / 2, 0.0, 0.0, math.pi / 2)


def dbsl_swap_plan(r) -> GatePlan:
    """Wire swap on the DBSL; the angles are squeezing-independent."""
    graph, _ = cz_region("DBSL", r)
    angles = graph.full_basis(DBSL_SWAP_FREE_ANGLES)
    return GatePlan("DBSL", "SWAP", r, (PlanTrack(graph, angles),),
                    _fourier_byproduct(1, 1) @ target_symplectic("SWAP"))


# ------------------------------------------------------------------ CZ cache

def default_table_path() -> Path:
    cache_dir = os.environ.get("CVMBQC_CACHE_DIR")
    if cache_dir:
        return Path(cache_dir) / "cz_basis_table.json"
    return Path(__file__).parent / "data" / "cz_basis_table.json"


def _is_finite_number(v) -> bool:
    """Whether a JSON value is a finite int or float (not a bool)."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


@functools.cache
def _n_free_angles(lattice: str) -> int:
    return len(lat.cz_region_graph(lat.LatticeParams.from_r(lattice, 1.0)).free_modes)


def _is_valid_row(row) -> bool:
    if not (isinstance(row, dict) and _is_finite_number(row.get("squeezing_db"))):
        return False
    try:
        lat.check_squeezing(lat.db_to_r(row["squeezing_db"]))
    except ValueError:
        return False
    return (row.get("lattice") in CACHED_CZ_LATTICES and isinstance(row.get("angles"), list)
            and len(row["angles"]) == _n_free_angles(row["lattice"])
            and all(_is_finite_number(a) for a in row["angles"])
            and row.get("accepted", True) is True
            and not {"theta_c", "variable_theta_c"} & row.keys())


def _is_row(row, lattice, db):
    """The table's row identity: (lattice, squeezing_db)."""
    return row["lattice"] == lattice and abs(row["squeezing_db"] - db) < ROW_DB_TOL


def load_basis_table(path: str | Path | None = None) -> dict:
    """The table at ``path`` (default: :func:`default_table_path`).

    Raises CacheMissError when there is no file, and ValueError naming the
    file when it cannot be read or is not a JSON object with a list
    ``entries`` of rows that the message describes, at most one per point
    (lattice, squeezing_db) and none marked ``"accepted": false``.
    """
    p = Path(path) if path is not None else default_table_path()
    if not p.exists():
        raise CacheMissError(
            f"no optimized-basis table at {p}; build one with `cvmbqc optimize --lattice "
            "DBSL BSL MBSL --db-min <a> --db-max <b> --out DIR/cz_basis_table.json`, "
            "then set CVMBQC_CACHE_DIR=DIR")
    with reporting_os_errors(f"read basis table {p}"), open(p) as fh:
        try:
            table = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"malformed basis table {p}: {exc}") from exc
    if not (isinstance(table, dict) and isinstance(table.get("entries"), list)):
        raise ValueError(f"malformed basis table {p}: not a JSON object with a list 'entries'")
    for i, row in enumerate(table["entries"]):
        if not _is_valid_row(row):
            counts = ", ".join(f"{lt} {_n_free_angles(lt)}" for lt in CACHED_CZ_LATTICES)
            raise ValueError(f"malformed basis table {p}: entry {i} is not a "
                             f"{'/'.join(CACHED_CZ_LATTICES)} row with a 'squeezing_db' "
                             f"from {lat.MIN_SQUEEZING_DB:g} to {lat.MAX_SQUEEZING_DB:g} dB, "
                             f"finite 'angles' ({counts}), 'accepted' true if any, and no "
                             "'theta_c' or 'variable_theta_c'")
    keys = sorted((e["lattice"], e["squeezing_db"], i) for i, e in enumerate(table["entries"]))
    for (lattice, db, i), (_, _, j) in zip(keys, keys[1:]):
        if _is_row(table["entries"][j], lattice, db):
            raise ValueError(f"malformed basis table {p}: entries {min(i, j)} and {max(i, j)} "
                             f"are two {lattice} rows at {db:g} dB")
    return table


def save_basis_table(table: dict, path: str | Path) -> Path:
    """Write ``table`` to ``path`` whole: through a temporary file of its own
    in the same directory and one atomic replace, so a reader, also of a path
    that two runs write at once, finds one complete table or the other."""
    p = Path(path)
    # not tempfile.mkstemp: its mode 0600 would become the table's
    tmp = p.with_name(f"{p.name}.{os.urandom(8).hex()}.tmp")
    with reporting_os_errors(f"save basis table {p}"):
        p.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "x") as fh:
                json.dump(table, fh, indent=1)
            os.replace(tmp, p)
        finally:  # gone after the replace; left over only by a failure
            tmp.unlink(missing_ok=True)
    return p


def find_row(table, lattice, db) -> dict | None:
    """The row at (lattice, db) that every CZ plan there is built from, or None."""
    return next((row for row in table["entries"] if _is_row(row, lattice, db)), None)


def cz_plan(lattice: str, db, table: dict | None = None) -> GatePlan:
    """Optimized Fourier-CZ plan from the cached basis table, at squeezing
    ``db`` (in dB) or, stacked, at each point of an array of them.

    The table's angles are those of the even-parity CZ region, the only
    region the optimizer searches, at the lattice's default control basis;
    the QRL plan is closed-form.
    """
    if lattice == "QRL":
        return qrl_cz_plan(lat.db_to_r(db))
    if table is None:
        table = load_basis_table()
    section = {"entries": [row for row in table["entries"] if row["lattice"] == lattice]}

    def basis_at(d):
        row = find_row(section, lattice, d)
        if row is None:
            raise CacheMissError(
                f"no cached CZ basis for {lattice} at {d:g} dB; build a table that holds "
                f"it with `cvmbqc optimize --lattice {lattice} --db-min {d:g} --db-max {d:g} "
                "--out DIR/cz_basis_table.json`, then set CVMBQC_CACHE_DIR=DIR")
        return row["angles"]

    # one entry per free angle, each in db's shape
    angles = np.moveaxis(np.asarray(lat.per_point(basis_at, db)), -1, 0)
    return cz_region_plan(lattice, lat.db_to_r(db), angles)


def iter_catalog(r: float):
    """All closed-form plans at squeezing r (single-mode set, QRL CZ, DBSL swap)."""
    for lattice in ("DBSL", "BSL", "MBSL", "QRL"):
        for gate_id in SINGLE_MODE_GATES:
            yield basis_for(lattice, gate_id, r)
    yield qrl_cz_plan(r)
    yield dbsl_swap_plan(r)
