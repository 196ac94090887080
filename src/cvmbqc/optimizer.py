"""Rediscover controlled-Z basis settings: solve G(theta) = T exactly over the
measured-mode angles, then minimize the GKP error probability on the solutions.

From each start, a Levenberg-Marquardt solve drives the gate residual
F = vec(M[:, :n_in] - [T | 0]) to a root with the analytic Jacobian of
:func:`_kernels.reduce_jet`.  Where the roots form a continuum (BSL, MBSL and
the variable-theta_c DBSL), a descent of log perr follows its analytic
gradient projected onto the null space of the Jacobian, retracting each step
onto the roots; isolated roots (DBSL, QRL) are kept as they are.
:class:`OptimizerConfig` sets ``restarts`` and ``seed``; ``weight_grid`` is
still validated but has no effect.  Accepted solutions must implement the
target to an entrywise 1-norm below :data:`RESIDUAL_TOL`; among those the
lowest error probability wins, with residual and then lexicographic order of
the canonical angles (each free angle mod pi) as tie-breakers.

Each start's solve is a pure function of (region, start), so :func:`search`
maps them over one forked worker process per CPU in the affinity mask (at
most one per start), and scores the end points in the calling process in
start order.  The result is bit-identical to a serial loop for any worker
count.  Where ``fork`` is not offered, or only one CPU is usable, the solves
run serially in process.  :class:`OptResult` counts the eliminations, starts,
workers and roots a search spent and found.
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
           "search", "cz_search", "evaluate_free_angles", "RESIDUAL_TOL", "ROOT_TOL"]

# The default of OptimizerConfig.weight_grid, which no longer weights anything.
DEFAULT_WEIGHTS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)

# Acceptance: a solution implements the target when |G - T|_1 (plus any
# dummy-input leakage) is below this; the basis table ships only such rows.
RESIDUAL_TOL = 1e-5

# A start reaches a root when Levenberg-Marquardt brings |G - T|_1 (plus
# leakage) below this; the descent along the roots keeps every step there.
ROOT_TOL = 1e-13

# Levenberg-Marquardt: at most _LM_ITERS eliminations per start.
_LM_ITERS = 200
# Descent along the roots: J's null space is spanned by the right singular
# vectors whose singular value is below _RANK_TOL times the largest; a step
# starts at _FIRST_STEP, is retracted in at most _RETRACT_ITERS Gauss-Newton
# steps and accepted on a strict Armijo decrease _ARMIJO of log perr; the
# descent ends when no step length down to _STEP_TOL decreases log perr, or
# after _DESCENT_EVALS eliminations.
_RANK_TOL = 1e-8
_FIRST_STEP = 0.1
_STEP_TOL = 1e-14
_RETRACT_ITERS = 8
_ARMIJO = 1e-4
_DESCENT_EVALS = 4000


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
    # what the search spent: eliminations in its per-start solves, the
    # starts solved, the worker processes that ran them, and the starts whose
    # Levenberg-Marquardt solve reached a root (|F|_1 < ROOT_TOL)
    evals: int = 0
    descents: int = 0
    workers: int = 1
    roots: int = 0

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
    carries into the error-probability budget.  With ``variable_theta_c``
    the last free angle is the control basis theta_c.
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
    variable_theta_c: bool

    @property
    def n_free(self) -> int:
        return self.a_map.shape[1]

    def metrics(self, x) -> tuple:
        return _kernels.reduce_metrics(np.asarray(x, dtype=float), self)

    def jet(self, x):
        """``(F, J, perr, grad log perr)`` at ``x``, or None at a degenerate basis."""
        return _kernels.reduce_jet(np.asarray(x, dtype=float), self)

    def canonical(self, x) -> np.ndarray:
        """Each free angle's representative mod pi: in [-pi/2, pi/2), and a
        variable theta_c in [0, pi).  Every free angle is pi-periodic,
        because flipping the sign of a measured row leaves M unchanged."""
        y = np.fmod(np.asarray(x, dtype=float), math.pi)  # exact
        lo = np.full(len(y), -math.pi / 2)
        if self.variable_theta_c:
            lo[-1] = 0.0
        # each shift by pi is exact in the usual case |y| >= pi/2 (Sterbenz)
        y = np.where(y < lo, y + math.pi, y)
        return np.where(y >= lo + math.pi, y - math.pi, y)


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
                        s0x[:, cols], s0p[:, cols], out[rows][:, cols], variable_theta_c)


def _solve_start(frozen: FrozenRegion, x0):
    """One start's job: Levenberg-Marquardt to a root of F, then, where the
    roots form a continuum, a descent of log perr along it.

    Returns the end point, the eliminations spent and whether LM reached a
    root (|F|_1 < ROOT_TOL)."""
    x, jet, evals = _levenberg_marquardt(frozen, np.asarray(x0, dtype=float))
    root = jet is not None and bool(np.abs(jet[0]).sum() < ROOT_TOL)
    if root:
        x, n = _feasible_descent(frozen, x, jet)
        evals += n
    return x, evals, root


def _levenberg_marquardt(frozen: FrozenRegion, x):
    """Damped Gauss-Newton steps on |F|^2 (Levenberg 1944; Marquardt 1963),
    with the gain-ratio damping update of Madsen, Nielsen & Tingleff (2004).
    Stops at a root, at a step too small to change x, or after _LM_ITERS
    eliminations.  Returns the end point, its jet (None if the start is
    degenerate) and the eliminations spent."""
    jet = frozen.jet(x)
    evals, damping, nu = 1, None, 2.0
    while jet is not None and evals < _LM_ITERS:
        f, jac = jet[0], jet[1]
        if np.abs(f).sum() < ROOT_TOL:
            break
        grad, normal = jac.T @ f, jac.T @ jac
        if damping is None:
            damping = 1e-3 * normal.diagonal().max()
        step = np.linalg.solve(normal + damping * np.eye(len(x)), -grad)
        y = x + step
        if np.array_equal(y, x):
            break
        trial = frozen.jet(y)
        evals += 1
        cost = f @ f
        new_cost = math.inf if trial is None else trial[0] @ trial[0]
        if new_cost < cost:
            rho = (cost - new_cost) / (step @ (damping * step - grad))
            x, jet = y, trial
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            damping *= nu
            nu *= 2.0
    return x, jet, evals


def _retract(frozen: FrozenRegion, x):
    """Gauss-Newton least-norm steps from x back to a root.  Returns the root
    and its jet, or None, and the eliminations spent."""
    for evals in range(1, _RETRACT_ITERS + 1):
        jet = frozen.jet(x)
        if jet is None:
            break
        if np.abs(jet[0]).sum() < ROOT_TOL:
            return x, jet, evals
        x = x - np.linalg.lstsq(jet[1], jet[0], rcond=None)[0]
    return x, None, evals


def _feasible_descent(frozen: FrozenRegion, x, jet):
    """Descend log perr on the root set through the root ``x``.

    Each step follows the log-perr gradient projected onto the null space of
    J and is retracted onto the roots; the step length doubles after an
    accepted step and halves until the Armijo condition holds.  An isolated
    root (J of full column rank) is returned as it is.  Returns the end
    point and the eliminations spent."""
    _, sv, vt = np.linalg.svd(jet[1])
    rank = int((sv > _RANK_TOL * sv[0]).sum())
    evals, length = 0, _FIRST_STEP
    while rank < len(x) and evals < _DESCENT_EVALS:
        null = vt[rank:]
        direction = -(null.T @ (null @ jet[3]))
        slope = jet[3] @ direction
        if not slope < 0.0:
            break
        log_perr = math.log(jet[2])
        while length > _STEP_TOL:
            y, trial, n = _retract(frozen, x + length * direction)
            evals += n
            if trial is not None and math.log(trial[2]) < log_perr + _ARMIJO * length * slope:
                x, jet = y, trial
                vt = np.linalg.svd(jet[1])[2]
                length *= 2.0
                break
            length /= 2.0
        else:
            break
    return x, evals


# The region a pool worker solves in, set once per worker by _init_worker.
_worker_region = None


def _init_worker(frozen: FrozenRegion) -> None:
    global _worker_region
    _worker_region = frozen


def _worker_solve(x0):
    return _solve_start(_worker_region, x0)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _solve_all(frozen: FrozenRegion, starts: list):
    """:func:`_solve_start` of every start, in start order, and the number of
    processes that ran them.

    Forked workers inherit the region through the pool initializer, so a task
    carries only its start; the pool lives for this call alone.
    """
    workers = min(_usable_cpus(), len(starts))
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
                return list(pool.map(_worker_solve, starts)), workers
    return [_solve_start(frozen, x0) for x0 in starts], 1


def search(frozen: FrozenRegion, config: OptimizerConfig, warm_starts=()) -> OptResult:
    """Best accepted solution over the exact warm starts and the solves from
    every start.

    Deterministic for a fixed seed; warm starts (exact and jittered) are
    prepended to the uniform random start sequence.  Each exact warm start is
    also scored as a candidate in its own right, under the same acceptance
    rule and tie-break as the solve results, so the result is never worse
    than a feasible warm start.  Candidates are scored, compared and returned
    at their canonical angles (:meth:`FrozenRegion.canonical`).  When nothing
    meets the residual tolerance the best rejected candidate is returned,
    flagged.  ``config.weight_grid`` has no effect.  The solves may run in
    worker processes; the result does not depend on how many.
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
        x = frozen.canonical(x)
        resid, perr = frozen.metrics(x)
        key = (perr, resid, tuple(x))
        if resid < RESIDUAL_TOL:
            if best is None or key < best:
                best = key
        elif best_rejected is None or (resid, perr) < best_rejected[:2]:
            best_rejected = (resid, perr, tuple(x))

    for x0 in starts[:len(warm_starts)]:
        score(x0)
    solved, workers = _solve_all(frozen, starts)
    for x, _, _ in solved:
        score(x)

    spent = {"evals": sum(n for _, n, _ in solved), "descents": len(starts),
             "workers": workers, "roots": sum(root for _, _, root in solved)}
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
