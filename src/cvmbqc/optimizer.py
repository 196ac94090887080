"""Rediscover controlled-Z basis settings by global minimization of the
gate-residual / log-error-probability objective over the measured-mode angles.

The search is a multistart derivative-free simplex descent over the region's
free angles, repeated over a log-spaced grid of error-probability weights;
:class:`OptimizerConfig` sets ``restarts``, ``weight_grid`` and ``seed``.
Accepted solutions must implement the target to an entrywise 1-norm below
:data:`RESIDUAL_TOL`; among those the lowest error probability wins, with
residual and then lexicographic angle order as tie-breakers.

Each restart x weight descent is a pure function of (region, start, weight),
so :func:`search` maps them over one forked worker process per CPU in the
affinity mask (at most one per descent), and scores the end points in the
calling process in job order.  The result is bit-identical to a serial loop
for any worker count.  Where ``fork`` is not offered, or only one CPU is
usable, the descents run serially in process.  :class:`OptResult` counts the
evaluations, descents and workers a search spent.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from . import gates
from .gkp import error_probability, propagate_spikes, resource_variances
from .reduction import noise_factors, restrict, split_s0
from .reduction import reduce as reduce_region

__all__ = ["OptimizerConfig", "OptResult", "FrozenRegion", "freeze_region",
           "search", "cz_search", "evaluate_free_angles", "RESIDUAL_TOL"]

DEFAULT_WEIGHTS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)

# Acceptance: a solution implements the target when |G - T|_1 (plus any
# dummy-input leakage) is below this; the basis table ships only such rows.
RESIDUAL_TOL = 1e-5

# Local descent: simplex re-initialization rounds k = 0, 1, ... at step
# _STEP / 2**k and the search weight, then polish rounds from _POLISH_STEP at
# the smallest weight; each simplex stops at _LOCAL_TOL or _MAX_EVALS.
_STEP = 0.35
_ROUNDS = 3
_POLISH_STEP = 0.05
_POLISH_ROUNDS = 2
_LOCAL_TOL = 1e-13
_MAX_EVALS = 20000


def _is_number(v, kind=numbers.Real) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass(frozen=True)
class OptimizerConfig:
    weight_grid: tuple = DEFAULT_WEIGHTS
    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        grid = self.weight_grid
        if not (isinstance(grid, (list, tuple)) and grid
                and all(_is_number(w) and 0 < w < math.inf for w in grid)):
            raise ValueError("weight_grid must be a nonempty list of finite positive "
                             f"weights, got {grid!r}")
        object.__setattr__(self, "weight_grid", tuple(grid))
        if not _is_number(self.restarts, numbers.Integral):
            raise ValueError(f"restarts must be an integer, got {self.restarts!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if not _is_number(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        if not isinstance(d, dict):
            raise ValueError("optimizer config must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown optimizer config keys: {', '.join(unknown)}")
        return cls(**d)


@dataclass
class OptResult:
    angles: np.ndarray
    residual: float
    perr: float
    accepted: bool
    theta_c: float | None = None
    # what the search spent: objective evaluations in its descents, the
    # descents themselves, and the worker processes that ran them
    evals: int = 0
    descents: int = 0
    workers: int = 1

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
    delta, cluster_var = resource_variances(r)
    weights = np.concatenate([np.full(n_real, delta), np.full(n_dummy, 0.5),
                              np.full(k, cluster_var)])
    return FrozenRegion(graph, np.hstack([target, np.zeros((len(rows), n_dummy))]),
                        delta, weights, theta_base, a_map,
                        s0x[:, cols], s0p[:, cols], out[rows][:, cols])


def _wrap(x):
    return (np.asarray(x) + math.pi) % (2 * math.pi) - math.pi


def _local_descent(frozen: FrozenRegion, x0, w: float, w_polish: float):
    """Simplex descent with re-initialization rounds, then a feasibility
    polish at the smallest weight ``w_polish`` (nearly pure gate residual).
    Returns the end point and the objective evaluations spent."""
    x = np.asarray(x0, dtype=float)
    evals = 0
    for weight, step, rounds in ((w, _STEP, _ROUNDS), (w_polish, _POLISH_STEP, _POLISH_ROUNDS)):
        f = frozen.objective(weight)
        for rd in range(rounds):
            x, _, n = _kernels.nelder_mead(f, x, step / 2.0 ** rd, _MAX_EVALS, _LOCAL_TOL)
            evals += n
    return x, evals


# The region a pool worker descends in, set once per worker by _init_worker.
_worker_region = None


def _init_worker(frozen: FrozenRegion) -> None:
    global _worker_region
    _worker_region = frozen


def _worker_descent(job):
    return _local_descent(_worker_region, *job)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _descend_all(frozen: FrozenRegion, jobs: list):
    """:func:`_local_descent` of every job ``(x0, w, w_polish)``, in job order,
    and the number of processes that ran them.

    Forked workers inherit the region through the pool initializer, so a task
    carries only its job; the pool lives for this call alone.
    """
    workers = min(_usable_cpus(), len(jobs))
    if workers > 1:
        # imported here so that importing the package starts no process machinery;
        # fork, because spawn and forkserver re-run a caller script that has no
        # `if __name__ == "__main__"` guard, and such a caller must keep working
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=ctx, initializer=_init_worker,
                                     initargs=(frozen,)) as pool:
                return list(pool.map(_worker_descent, jobs)), workers
    return [_local_descent(frozen, *job) for job in jobs], 1


def search(frozen: FrozenRegion, config: OptimizerConfig, warm_starts=()) -> OptResult:
    """Best accepted solution over the exact warm starts and the restart x
    weight grid.

    Deterministic for a fixed seed; warm starts (exact and jittered) are
    prepended to the uniform random start sequence.  Each exact warm start is
    also scored as a candidate in its own right, under the same acceptance
    rule and tie-break as the descent results, so the result is never worse
    than a feasible warm start.  When nothing meets the residual tolerance
    the best rejected candidate is returned, flagged.  The descents may run
    in worker processes; the result does not depend on how many.
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
        if resid < RESIDUAL_TOL:
            if best is None or key < best:
                best = key
        elif best_rejected is None or (resid, perr) < best_rejected[:2]:
            best_rejected = (resid, perr, tuple(_wrap(x)))

    for x0 in starts[:len(warm_starts)]:
        score(x0)
    w_polish = min(config.weight_grid)
    jobs = [(x0, w, w_polish) for w in config.weight_grid for x0 in starts]
    descents, workers = _descend_all(frozen, jobs)
    for x, _ in descents:
        score(x)

    spent = {"evals": sum(n for _, n in descents), "descents": len(jobs), "workers": workers}
    if best is not None:
        perr, resid, xs = best
        return OptResult(np.array(xs), resid, perr, True, **spent)
    resid, perr, xs = best_rejected
    return OptResult(np.array(xs), resid, perr, False, **spent)


def evaluate_free_angles(lattice: str, r: float, angles, theta_c: float | None = None):
    """Reference-path (residual, perr) of a CZ free-angle vector.

    Runs the plain reduction instead of the search kernel; used to re-verify
    accepted optimizer results and cached table rows.  The dummy inputs of the
    QRL region carry vacuum (variance 1/2) into the gate noise.
    """
    graph, target = gates.cz_region(lattice, r, theta_c)
    out = reduce_region(graph, graph.full_basis(angles))
    delta, cluster_var = resource_variances(r)
    keep = gates.CZ_KEEP
    real = restrict(out, keep, keep)
    leak = restrict(out, keep, [k for k in range(out.n_inputs) if k not in keep]).G
    resid = float(np.abs(real.G - target).sum() + np.abs(leak).sum())
    sigma2 = cluster_var * noise_factors(real) + 0.5 * (leak ** 2).sum(axis=1)
    return resid, error_probability(propagate_spikes(real.G, sigma2, delta), delta)


def _region(lattice: str, r: float, variable_theta_c=False) -> FrozenRegion:
    graph, target = gates.cz_region(lattice, r)
    return freeze_region(graph, target, r, out_sel=gates.CZ_KEEP, in_real=gates.CZ_KEEP,
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
        starts.append(np.array(gates.qrl_cz_angles(r)))  # the closed-form plan
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


def cz_search(lattice: str, r: float, config: OptimizerConfig, warm_starts=(),
              variable_theta_c: bool = False) -> OptResult:
    """Optimize the Fourier-CZ basis on one lattice at squeezing r.

    With ``variable_theta_c`` the DBSL control basis theta_c is a further
    free angle, returned in ``theta_c``; warm starts without it start at
    theta_c = pi/4.
    """
    if variable_theta_c and lattice != "DBSL":
        raise ValueError("variable theta_c optimization targets the DBSL region")
    frozen = _region(lattice, r, variable_theta_c)
    starts = _warm_starts(lattice, r, warm_starts)
    if variable_theta_c:
        starts = [np.append(w, math.pi / 4) if len(w) == frozen.n_free - 1 else w
                  for w in starts]
    res = search(frozen, config, warm_starts=starts)
    if variable_theta_c:
        res.theta_c = float(res.angles[-1])
        res.angles = res.angles[:-1]
    _crosscheck(res, lattice, r)
    return res
