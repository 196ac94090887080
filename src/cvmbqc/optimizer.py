"""Rediscover controlled-Z basis settings by global minimization of the
gate-residual / log-error-probability objective over the measured-mode angles.

The search is a multistart derivative-free simplex descent over the region's
free angles, repeated over a log-spaced grid of error-probability weights.
Accepted solutions must implement the target to an entrywise 1-norm below
1e-5; among those the lowest error probability wins, with residual and then
lexicographic angle order as tie-breakers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from . import gates
from . import lattice as lat
from .gkp import error_probability
from .reduction import noise_factors, restrict, split_s0
from .reduction import reduce as reduce_region

__all__ = ["OptimizerConfig", "OptResult", "FrozenRegion", "freeze_region",
           "objective", "search", "cz_search", "variable_theta_c_search",
           "evaluate_free_angles"]

DEFAULT_WEIGHTS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)

# Every CZ region compares these outputs against the target and carries
# encoded states on these inputs; the QRL region's further inputs are dummies.
_KEEP = (0, 1)


@dataclass(frozen=True)
class OptimizerConfig:
    weight_grid: tuple = DEFAULT_WEIGHTS
    restarts: int = 200
    residual_tol: float = 1e-5
    local_tol: float = 1e-13
    max_evals: int = 20000
    seed: int = 0
    step: float = 0.35
    rounds: int = 3          # simplex re-initializations per weighted descent
    polish_rounds: int = 2   # final small-step rounds at the smallest weight
    polish_step: float = 0.05

    def __post_init__(self):
        if not self.weight_grid or any(w <= 0 for w in self.weight_grid):
            raise ValueError("weight grid must be nonempty and positive")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        if not isinstance(d, dict):
            raise ValueError("optimizer config must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown optimizer config keys: {', '.join(unknown)}")
        return cls(**{k: (tuple(v) if k == "weight_grid" else v) for k, v in d.items()})


@dataclass
class OptResult:
    angles: np.ndarray
    residual: float
    perr: float
    accepted: bool
    restarts_used: int
    theta_c: float | None = None

    def to_row(self, lattice: str, db: float, variable_theta_c: bool = False) -> dict:
        row = {
            "lattice": lattice,
            "squeezing_db": db,
            "angles": [float(a) for a in self.angles],
            "residual": float(self.residual),
            "perr": float(self.perr),
            "accepted": bool(self.accepted),
        }
        if variable_theta_c:
            row["variable_theta_c"] = True
            row["theta_c"] = float(self.theta_c)
        return row


@dataclass(frozen=True, eq=False)
class FrozenRegion:
    """The angle-independent S0 blocks of one region, ready for the hot kernel.

    ``s0x``, ``s0p`` and ``out`` are the :func:`reduction.split_s0` blocks
    with the compared output rows picked and the input columns reordered to
    [real (xxpp) | dummy (xxpp)]; ``target_full`` is [T | 0] over the input
    columns and ``spike_weights`` the spike variance each column of M
    carries into the error-probability budget.
    """

    graph: object
    target_full: np.ndarray
    delta: float
    spike_weights: np.ndarray
    theta_base: np.ndarray
    a_map: np.ndarray
    s0x: np.ndarray
    s0p: np.ndarray
    out: np.ndarray

    @property
    def n_free(self) -> int:
        return self.a_map.shape[1]

    def metrics(self, x) -> tuple:
        return _kernels.reduce_metrics(np.asarray(x, dtype=float), self)

    def objective(self, w: float):
        """x -> |G - T|_1 + w log P_err, or ``BAD_VALUE`` at a degenerate basis."""
        def f(x):
            resid, perr = _kernels.reduce_metrics(x, self)
            if resid >= _kernels.BAD_VALUE:
                return _kernels.BAD_VALUE
            return resid + w * math.log(max(perr, 1e-300))
        return f


def freeze_region(graph, target, r, out_sel=None, in_real=None,
                  variable_theta_c=False) -> FrozenRegion:
    """Precompute the angle-independent parts of a region reduction.

    ``out_sel`` picks and orders the compared output modes, ``in_real`` the
    input modes carrying encoded states; remaining inputs are dummies whose
    leakage is penalized in the residual and budgeted as vacuum noise.  With
    ``variable_theta_c`` the last free variable scales every preset control
    basis by its alternation sign.
    """
    s0x, s0p, out = split_s0(graph)
    k = s0x.shape[0]
    n_in, n_out = len(graph.input_modes), len(graph.output_modes)
    out_sel = list(range(n_out)) if out_sel is None else list(out_sel)
    in_real = list(range(n_in)) if in_real is None else list(in_real)
    in_dummy = [i for i in range(n_in) if i not in in_real]
    ins = ([k + i for i in in_real] + [k + n_in + i for i in in_real]
           + [k + i for i in in_dummy] + [k + n_in + i for i in in_dummy])
    cols = list(range(k)) + ins + list(range(k + 2 * n_in, s0x.shape[1]))
    rows = out_sel + [n_out + i for i in out_sel]

    measured = list(graph.measured_modes)
    theta_base = np.zeros(k)
    pos = {m: i for i, m in enumerate(measured)}
    n_free = len(graph.free_modes) + (1 if variable_theta_c else 0)
    a_map = np.zeros((k, n_free))
    for i, m in enumerate(graph.free_modes):
        a_map[pos[m], i] = 1.0
    for m, sign in graph.control_modes:
        if variable_theta_c:
            a_map[pos[m], n_free - 1] = sign
        else:
            theta_base[pos[m]] = sign * graph.theta_c

    n_real, n_dummy = 2 * len(in_real), 2 * len(in_dummy)
    target = np.asarray(target, dtype=float)
    if target.shape != (len(rows), n_real):
        raise ValueError(f"target shape {target.shape} does not match "
                         f"{len(rows)} output quadratures x {n_real} real columns")
    delta = math.exp(-2.0 * r) / 2.0
    weights = np.concatenate([np.full(n_real, delta), np.full(n_dummy, 0.5),
                              np.full(k, 0.5 * lat.effective_epsilon(r))])
    return FrozenRegion(graph, np.hstack([target, np.zeros((len(rows), n_dummy))]),
                        delta, weights, theta_base, a_map,
                        s0x[:, cols], s0p[:, cols], out[rows][:, cols])


def objective(angles, graph, target, w: float, r: float, out_sel=None,
              in_real=None) -> float:
    """f = |G - T|_1 + w log P_err; +inf at measurement-degenerate bases."""
    frozen = freeze_region(graph, target, r, out_sel=out_sel, in_real=in_real)
    f = frozen.objective(w)(np.asarray(angles, dtype=float))
    return math.inf if f >= _kernels.BAD_VALUE else f


def _wrap(x):
    return (np.asarray(x) + math.pi) % (2 * math.pi) - math.pi


def _local_descent(frozen: FrozenRegion, x0, w: float, config: OptimizerConfig):
    """Simplex descent with re-initialization rounds, then a feasibility
    polish at the smallest weight (nearly pure gate residual)."""
    x = np.asarray(x0, dtype=float)
    f = frozen.objective(w)
    for rd in range(config.rounds):
        x, _, _ = _kernels.nelder_mead(f, x, config.step / 2.0 ** rd,
                                       config.max_evals, config.local_tol)
    f = frozen.objective(min(config.weight_grid))
    for rd in range(config.polish_rounds):
        x, _, _ = _kernels.nelder_mead(f, x, config.polish_step / 2.0 ** rd,
                                       config.max_evals, config.local_tol)
    return x


def search(frozen: FrozenRegion, config: OptimizerConfig, warm_starts=()) -> OptResult:
    """Best accepted solution over the exact warm starts and the restart x
    weight grid.

    Deterministic for a fixed seed; warm starts (exact and jittered) are
    prepended to the uniform random start sequence.  Each exact warm start is
    also scored as a candidate in its own right, under the same acceptance
    rule and tie-break as the descent results, so the result is never worse
    than a feasible warm start.  When nothing meets the residual tolerance
    the best rejected candidate is returned, flagged.
    """
    rng = np.random.default_rng(config.seed)
    n_free = frozen.n_free
    starts = [np.asarray(w, dtype=float) for w in warm_starts]
    for w in list(starts):
        starts.append(w + rng.normal(0.0, 0.05, n_free))
    while len(starts) < config.restarts:
        starts.append(rng.uniform(-math.pi, math.pi, n_free))
    starts = starts[:max(config.restarts, 2 * len(warm_starts))]

    best = None
    best_rejected = None

    def score(x):
        nonlocal best, best_rejected
        resid, perr = frozen.metrics(x)
        key = (perr, resid, tuple(_wrap(x)))
        if resid < config.residual_tol:
            if best is None or key < best:
                best = key
        elif best_rejected is None or (resid, perr) < best_rejected[:2]:
            best_rejected = (resid, perr, tuple(_wrap(x)))

    for x0 in starts[:len(warm_starts)]:
        score(x0)
    for w in config.weight_grid:
        for x0 in starts:
            score(_local_descent(frozen, x0, w, config))

    used = len(starts)
    if best is not None:
        perr, resid, xs = best
        return OptResult(np.array(xs), resid, perr, True, used)
    resid, perr, xs = best_rejected
    return OptResult(np.array(xs), resid, perr, False, used)


def evaluate_free_angles(lattice: str, r: float, angles, theta_c: float | None = None):
    """Reference-path (residual, perr) of a CZ free-angle vector.

    Runs the plain reduction instead of the search kernel; used to re-verify
    accepted optimizer results and cached table rows.
    """
    params = lat.LatticeParams.from_r(lattice, r)
    graph = lat.cz_region_graph(params, parity=0, theta_c=theta_c)
    out = reduce_region(graph, graph.full_basis(angles))
    nm = gates.FFCZ_EXPONENTS[(lattice, 0)]
    target = gates.target_symplectic("FFCZ", nm)
    delta = math.exp(-2.0 * r) / 2.0
    eps_half = 0.5 * lat.effective_epsilon(r)
    real = restrict(out, _KEEP, _KEEP)
    leak = restrict(out, _KEEP, [k for k in range(out.n_inputs) if k not in _KEEP]).G
    resid = float(np.abs(real.G - target).sum() + np.abs(leak).sum())
    spikes = (delta * (real.G ** 2).sum(axis=1) + 0.5 * (leak ** 2).sum(axis=1)
              + eps_half * noise_factors(real))
    return resid, error_probability(spikes, delta)


def _region(lattice: str, r: float, variable_theta_c=False) -> FrozenRegion:
    params = lat.LatticeParams.from_r(lattice, r)
    graph = lat.cz_region_graph(params, parity=0)
    target = gates.target_symplectic("FFCZ", gates.FFCZ_EXPONENTS[(lattice, 0)])
    return freeze_region(graph, target, r, out_sel=_KEEP, in_real=_KEEP,
                         variable_theta_c=variable_theta_c)


def _warm_starts(lattice: str, r: float, extra=()):
    starts = [np.asarray(a, dtype=float) for a in extra]
    if lattice == "DBSL":
        # infinite-squeezing rotated-CZ construction and the swap setting:
        # not solutions of the Fourier-CZ target, but useful basin hints
        a = math.atan(0.5)
        q = math.pi / 4
        starts.append(np.array([3 * q / 2, -q / 2, 3 * q / 2, -q / 2,
                                -q, q - a, q + a, q + a, -q, q - a]))
        starts.append(np.array(gates.DBSL_SWAP_FREE_ANGLES))
    if lattice == "QRL":
        aa = gates.QRL_CZ_ANGLES
        comp = math.atan(math.tanh(2.0 * r) ** -2)
        starts.append(np.array([aa["C"], aa["B"], aa["A"], aa["D"],
                                comp, comp, -comp, -comp,
                                comp, comp, -comp, -comp]))
    return starts


def _crosscheck(res: OptResult, lattice: str, r: float) -> None:
    """Re-score an accepted result on the reference path: the residual must
    agree to 1e-10 absolute and perr to 1e-9 relative."""
    if not res.accepted:
        return
    resid, perr = evaluate_free_angles(lattice, r, res.angles, theta_c=res.theta_c)
    if abs(resid - res.residual) > 1e-10 or abs(perr - res.perr) > 1e-9 * perr:
        raise AssertionError(
            f"kernel/reference mismatch at {lattice} r={r} theta_c={res.theta_c}: "
            f"residual {res.residual} vs {resid}, perr {res.perr} vs {perr}")


def cz_search(lattice: str, r: float, config: OptimizerConfig,
              warm_starts=()) -> OptResult:
    """Optimize the Fourier-CZ basis on one lattice at squeezing r."""
    frozen = _region(lattice, r)
    res = search(frozen, config, warm_starts=_warm_starts(lattice, r, warm_starts))
    _crosscheck(res, lattice, r)
    return res


def variable_theta_c_search(lattice: str, r: float, config: OptimizerConfig,
                            warm_starts=()) -> OptResult:
    """Optimize the Fourier-CZ basis with the control basis theta_c free."""
    if lattice != "DBSL":
        raise ValueError("variable theta_c optimization targets the DBSL region")
    frozen = _region(lattice, r, variable_theta_c=True)
    starts = []
    for w in _warm_starts(lattice, r, warm_starts):
        if len(w) == frozen.n_free - 1:
            w = np.append(w, math.pi / 4)
        starts.append(w)
    res = search(frozen, config, warm_starts=starts)
    res.theta_c = float(res.angles[-1])
    res.angles = res.angles[:-1]
    _crosscheck(res, lattice, r)
    return res
