"""Gate plans: closed-form basis settings per lattice plus the optimizer-backed
controlled-Z cache.

A plan is a tuple of steps, each one :class:`PlanTrack` (region graph, full
basis, kept outputs/inputs).  Realizing a plan reduces every step, keeps its
chosen modes, and chains the steps, so the combined noise matrix follows the
two-step composition rule N = [G2 N1 | N2].  Every controlled-Z plan, the
closed-form QRL one included, is one step on its lattice's :func:`cz_region`.
Every plan constructor takes the squeezing as a number or an array; an
array gives one plan for the whole block, each step one stacked region graph
with one angle array per measured mode, which :func:`realize` reduces in one
pass per step.
"""

from __future__ import annotations

import fcntl
import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import lattice as lat
from . import symplectic as sp
from .errors import CacheMissError
from .reduction import GateResult, basis_from_sums, chain, reduce, restrict

__all__ = [
    "GatePlan",
    "PlanTrack",
    "realize",
    "target_symplectic",
    "cz_region",
    "basis_for",
    "qrl_cz_angles",
    "qrl_cz_plan",
    "dbsl_swap_plan",
    "cz_plan",
    "iter_catalog",
    "load_basis_table",
    "save_basis_table",
    "update_basis_table",
    "find_row",
    "default_table_path",
]

SINGLE_MODE_GATES = ("I", "F", "P1")

# Lattices whose CZ basis is read from the table; the QRL CZ is closed-form.
CACHED_CZ_LATTICES = ("DBSL", "BSL", "MBSL")

# Fourier byproduct exponents (n, m) of the (F^n x F^m) CZ(1) that the
# even-parity CZ region implements per lattice.
FFCZ_EXPONENTS = {"DBSL": (1, 1), "BSL": (1, -1), "MBSL": (1, 1), "QRL": (-1, -1)}

# Every CZ region keeps these outputs and inputs, the two computation modes;
# the QRL region's further inputs and outputs are dummy paths.
CZ_KEEP = (0, 1)


@dataclass(frozen=True)
class PlanTrack:
    """One plan step: its region graph, full basis, and the output and input
    positions the step keeps, in order (default: all of them)."""

    graph: lat.ComputationGraph
    angles: dict
    out_keep: tuple = None
    in_keep: tuple = None
    keeps_all: bool = field(init=False)

    def __post_init__(self):
        every = (tuple(range(len(self.graph.output_modes))),
                 tuple(range(len(self.graph.input_modes))))
        keep = tuple(e if k is None else tuple(k)
                     for e, k in zip(every, (self.out_keep, self.in_keep)))
        object.__setattr__(self, "out_keep", keep[0])
        object.__setattr__(self, "in_keep", keep[1])
        object.__setattr__(self, "keeps_all", keep == every)


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
        if not track.keeps_all:
            res = restrict(res, track.out_keep, track.in_keep)
        combined = res if combined is None else chain(combined, res)
    return combined


def _fourier_byproduct(n: int, m: int) -> np.ndarray:
    """The two-mode Fourier byproduct F^n (+) F^m."""
    return (sp.embed(sp.rotation(n * math.pi / 2), [0], 2)
            @ sp.embed(sp.rotation(m * math.pi / 2), [1], 2))


def target_symplectic(gate_id: str, signs=(1, 1)) -> np.ndarray:
    """Symplectic matrix of a target gate; ``signs`` are the Fourier exponents
    (n, m) for the FFCZ family."""
    if gate_id == "I":
        return sp.identity()
    if gate_id == "F":
        return sp.rotation(math.pi / 2)
    if gate_id == "P1":
        return sp.shear(1.0)
    if gate_id == "FFCZ":
        return _fourier_byproduct(*signs) @ sp.cz(1.0)
    if gate_id == "SWAP":
        x = np.zeros((4, 4))
        x[0, 1] = x[1, 0] = x[2, 3] = x[3, 2] = 1.0
        return x
    raise ValueError(f"unknown gate id {gate_id!r}")


def cz_region(lattice: str, r, theta_c=None) -> tuple:
    """The even-parity CZ region of ``lattice`` at squeezing r (stacked for
    an array), and the Fourier-CZ target it implements: (graph, target)."""
    graph = lat.cz_region_graph(lat.LatticeParams.from_r(lattice, r), theta_c=theta_c)
    return graph, target_symplectic("FFCZ", FFCZ_EXPONENTS[lattice])


def _step_basis(graph, theta_plus, theta_minus):
    """Basis for one single-mode step: the wire pair carries (theta+, theta-)."""
    mode_in, mode_partner = graph.free_modes[0], graph.free_modes[1]
    extra = graph.control_angles()
    if graph.lattice == "QRL":
        # basis restriction theta_A = theta_D, theta_B = theta_C applies the
        # same gate to both computation modes of the macronode
        a_in = 0.5 * (theta_plus + theta_minus)
        a_pa = 0.5 * (theta_plus - theta_minus)
        return {0: a_in, 1: a_in, 2: a_pa, 3: a_pa}
    return basis_from_sums(mode_in, mode_partner, theta_plus, theta_minus, extra)


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
    if np.any(np.asarray(r) <= 0):
        raise ValueError("squeezing parameter must be positive")
    keep = (0,) if lattice == "QRL" else None  # one computation mode of the macronode
    # every step runs on the one graph
    graph = lat.single_step_graph(lat.LatticeParams.from_r(lattice, r), parity=parity)
    # (theta+, theta-) per step, with r's axes in front
    sums = np.asarray(lat.per_point(
        lambda x: _single_mode_sums(lattice, gate_id, x, parity), r))
    steps = tuple(PlanTrack(graph, _step_basis(graph, step[..., 0], step[..., 1]), keep, keep)
                  for step in np.moveaxis(sums, -2, 0))
    return GatePlan(lattice, gate_id, r, steps, target_symplectic(gate_id))


def _cz_region_plan(lattice, r, free_angles, theta_c=None) -> GatePlan:
    """One-step Fourier-CZ plan on the CZ region of ``lattice``."""
    graph, target = cz_region(lattice, r, theta_c)
    return GatePlan(lattice, "FFCZ", r,
                    (PlanTrack(graph, graph.full_basis(free_angles), CZ_KEEP, CZ_KEEP),),
                    target)


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
    return _cz_region_plan("QRL", r, qrl_cz_angles(r))


DBSL_SWAP_FREE_ANGLES = (math.pi / 4, -math.pi / 4, math.pi / 4, -math.pi / 4,
                         0.0, math.pi / 2, math.pi / 2, 0.0, 0.0, math.pi / 2)


def dbsl_swap_plan(r) -> GatePlan:
    """Wire swap on the DBSL; the angles are squeezing-independent."""
    graph = lat.cz_region_graph(lat.LatticeParams.from_r("DBSL", r))
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
    if not (isinstance(row, dict) and row.get("lattice") in CACHED_CZ_LATTICES
            and _is_finite_number(row.get("squeezing_db"))
            and isinstance(row.get("angles"), list)
            and len(row["angles"]) == _n_free_angles(row["lattice"])
            and all(_is_finite_number(a) for a in row["angles"])):
        return False
    if "theta_c" in row and not _is_finite_number(row["theta_c"]):
        return False
    if not isinstance(row.get("accepted", True), bool):
        return False
    return not row.get("variable_theta_c") or (row["lattice"] == "DBSL" and "theta_c" in row)


def load_basis_table(path: str | Path | None = None) -> dict:
    """The table at ``path`` (default: :func:`default_table_path`).

    Raises CacheMissError when there is no file, and ValueError naming the
    file when it is not a JSON object with a list ``entries`` whose every row
    is an object with a ``lattice`` in :data:`CACHED_CZ_LATTICES`, a finite
    number ``squeezing_db``, a list ``angles`` of one finite number per free
    mode of that lattice's :func:`cz_region`, a finite number ``theta_c`` if
    it has one, a bool ``accepted`` if it has one, and ``theta_c`` on a DBSL
    row if it sets ``variable_theta_c``.
    """
    p = Path(path) if path is not None else default_table_path()
    if not p.exists():
        raise CacheMissError(
            f"no optimized-basis table at {p}; generate one with "
            "`cvmbqc optimize --lattice <L> --db-min <a> --db-max <b> --out <path>`")
    with open(p) as fh:
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
                             f"{'/'.join(CACHED_CZ_LATTICES)} row with a finite "
                             f"'squeezing_db', finite 'angles' ({counts}), a finite "
                             "'theta_c' if any and a bool 'accepted' if any; a "
                             "'variable_theta_c' row is a DBSL row with a 'theta_c'")
    return table


def save_basis_table(table: dict, path: str | Path | None = None) -> Path:
    p = Path(path) if path is not None else default_table_path()
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(p.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(table, fh, indent=1)
    os.replace(tmp, p)
    return p


def _is_row(row, lattice, db, variable_theta_c):
    """The table's row identity: (lattice, variable_theta_c, squeezing_db)."""
    return (row["lattice"] == lattice
            and bool(row.get("variable_theta_c")) == variable_theta_c
            and abs(row["squeezing_db"] - db) < 1e-9)


def update_basis_table(row: dict, path: str | Path | None = None) -> Path:
    """Replace the row at ``row``'s (lattice, variable_theta_c, db) in the table
    at ``path`` and save it, creating the table if needed.

    The table is re-read under the ``<table>.lock`` file lock, so runs that
    write different rows can share one table: every other row survives.
    """
    p = Path(path) if path is not None else default_table_path()
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{p}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            table = load_basis_table(p)
        except CacheMissError:
            table = {"version": 1, "package": __version__, "entries": []}
        table["entries"] = sorted(
            [e for e in table["entries"] if not _is_row(
                e, row["lattice"], row["squeezing_db"], bool(row.get("variable_theta_c")))]
            + [row],
            key=lambda e: (e["lattice"], bool(e.get("variable_theta_c")), e["squeezing_db"]))
        return save_basis_table(table, p)


def find_row(table, lattice, db, variable_theta_c=False) -> dict | None:
    """The first row at (lattice, variable_theta_c, db) that is not marked
    ``"accepted": false``, or None: the row every CZ plan there is built from."""
    for row in table["entries"]:
        if _is_row(row, lattice, db, variable_theta_c) and row.get("accepted", True):
            return row
    return None


def cz_plan(lattice: str, db, table: dict | None = None,
            variable_theta_c: bool = False) -> GatePlan:
    """Optimized Fourier-CZ plan from the cached basis table, at squeezing
    ``db`` (in dB) or, stacked, at each point of an array of them.

    The table's angles are those of the even-parity CZ region, the only
    region the optimizer searches; the QRL plan is closed-form.
    """
    if lattice == "QRL":
        return qrl_cz_plan(lat.db_to_r(db))
    if table is None:
        table = load_basis_table()

    def basis_at(d):
        row = find_row(table, lattice, d, variable_theta_c)
        if row is None:
            raise CacheMissError(
                f"no cached CZ basis for {lattice} at {d:g} dB"
                f"{' (variable theta_c)' if variable_theta_c else ''}; run "
                f"`cvmbqc optimize --lattice {lattice}"
                f"{' --variable-theta-c' if variable_theta_c else ''} "
                f"--db-min {d:g} --db-max {d:g}`")
        return row["angles"] + [row.get("theta_c", lat.DEFAULT_THETA_C[lattice])]

    # one entry per free angle, then theta_c, each in db's shape
    *angles, theta_c = np.moveaxis(np.asarray(lat.per_point(basis_at, db)), -1, 0)
    return _cz_region_plan(lattice, lat.db_to_r(db), angles, theta_c)


def iter_catalog(r: float):
    """All closed-form plans at squeezing r (single-mode set, QRL CZ, DBSL swap)."""
    for lattice in ("DBSL", "BSL", "MBSL", "QRL"):
        for gate_id in SINGLE_MODE_GATES:
            yield basis_for(lattice, gate_id, r)
    yield qrl_cz_plan(r)
    yield dbsl_swap_plan(r)
