"""Rediscover controlled-Z basis settings: solve G(theta) = T exactly over the
measured-mode angles, then minimize the GKP error probability on the solutions.

From each start, a Levenberg-Marquardt solve drives the gate residual
F = vec(M[:, :n_in] - T) to a root with the analytic Jacobian of
:func:`_kernels.reduce_residual`, on a region whose inputs are all encoded
and whose outputs are all compared (not the QRL's).  Where the roots form a
continuum (BSL, MBSL), a modified Newton descent of log perr follows them:
the gradient and the exact Hessian of the Lagrangian log perr - lam^T F,
both reduced to the null space of the Jacobian, each step retracted onto
the roots by rank-truncated Gauss-Newton steps, and where that descent
stops at a saddle it steps off along the most negative curvature; isolated
roots (DBSL, closed-form: see :func:`dbsl_theta_c_optimum`) are kept as
they are.  A start that LM leaves accepted but not at a root takes one more
Gauss-Newton step.  :class:`OptimizerConfig` sets ``restarts`` (default 1)
and ``seed``; ``weight_grid`` is still validated but has no effect.  The
starts are the caller's warm starts, each solved once, then uniform random
ones up to ``restarts``, the only ones the seed draws; no start is built in.
The uniform starts are PCG64 draws seeded by numpy's ``SeedSequence``
(O'Neill 2014), computed in Python integers by :func:`_uniform_starts`: bit
for bit ``np.random.default_rng(seed).uniform(-pi, pi, ...)``, without
importing ``numpy.random``.
Accepted solutions must implement the target to an entrywise 1-norm below
:data:`RESIDUAL_TOL`; among those the lowest error probability wins, with
residual and then lexicographic order of the canonical angles (each free
angle mod pi) as tie-breakers.

:func:`search` advances its starts in lockstep in the calling process,
over start-order blocks of at most _BLOCK starts.  A Levenberg-Marquardt
iteration evaluates every running start in one stacked
:func:`_kernels.reduce_residual`.  A descent yields one point at a time, and
a lockstep round serves the points of all descents together: one stacked
:func:`_kernels.reduce_jet`, one stacked SVD of the Jacobians and, at the
points that are roots, one stacked :func:`_kernels.lagrangian_hessian`.
Each start's trajectory is bit for bit the one it has alone, whatever else
is in the stack, so the result is that of a loop over the starts.  The
exact warm starts and every end point are then scored from one more stacked
jet.  A degenerate point is one that the jet's mask, the elimination's
per-point degeneracy rule, rejects: no solve moves onto one or on from one,
and a candidate there scores residual ``_kernels.BAD_VALUE`` and perr 1.
:class:`OptResult` counts the eliminations, starts and roots a search spent
and found.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from . import gates
from .gkp import gate_error_probability, resource_variances
from .reduction import split_s0

__all__ = ["OptimizerConfig", "OptResult", "FrozenRegion", "freeze_region", "search", "cz_search",
           "evaluate_free_angles", "dbsl_theta_c_optimum", "RESIDUAL_TOL", "ROOT_TOL"]

# The default of OptimizerConfig.weight_grid, which no longer weights anything.
DEFAULT_WEIGHTS = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)

# search() builds every start before it solves one; bounded like a CLI grid.
MAX_RESTARTS = 10 ** 6

# Acceptance: a solution implements the target when |G - T|_1 is below
# this; the basis table ships only such rows.
RESIDUAL_TOL = 1e-5

# A start reaches a root when Levenberg-Marquardt brings |G - T|_1 below
# this; the descent along the roots keeps every step there.
ROOT_TOL = 1e-13

# Levenberg-Marquardt: at most _LM_ITERS eliminations per start.
_LM_ITERS = 200
# Descent along the roots: J's null space is spanned by the right singular
# vectors whose singular value is below _RANK_TOL times the largest, and the
# retraction's Gauss-Newton step inverts only the singular values above it;
# every point is retracted in at most _RETRACT_ITERS such steps; a
# Newton step is at most _MAX_STEP long and accepted on a strict Armijo
# decrease _ARMIJO of log perr; the descent ends when the Newton decrement
# falls below _DECREMENT_TOL and no reduced-Hessian eigenvalue is below
# -_CURVATURE_TOL times the largest |eigenvalue|, when no step down to
# _MIN_STEP of the full one decreases log perr, or after _DESCENT_EVALS
# eliminations.
_RANK_TOL = 1e-8
_RETRACT_ITERS = 8
_MAX_STEP = 0.5
_ARMIJO = 1e-4
_DECREMENT_TOL = 1e-14
_CURVATURE_TOL = 1e-6
_MIN_STEP = 1e-6
_DESCENT_EVALS = 4000
# The search solves its starts in start-order blocks of at most this many,
# which bounds the memory of the stacked jets.
_BLOCK = 256


def _is_number(v, kind=numbers.Real) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass(frozen=True)
class OptimizerConfig:
    weight_grid: tuple = DEFAULT_WEIGHTS
    restarts: int = 1
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
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must be at least 1 and at most {MAX_RESTARTS}, "
                             f"got {self.restarts}")
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
    # what the search spent: eliminations in its per-start solves (a
    # descent evaluates its Levenberg-Marquardt root once more, for perr and
    # its derivatives), the starts solved, and the starts whose
    # Levenberg-Marquardt solve, with its Gauss-Newton step, reached a root
    # (|F|_1 < ROOT_TOL)
    evals: int = 0
    descents: int = 0
    roots: int = 0

    def to_row(self, lattice: str, db: float) -> dict:
        return {
            "lattice": lattice,
            "squeezing_db": db,
            "angles": [float(a) for a in self.angles],
            "residual": float(self.residual),
            "perr": float(self.perr),
            "accepted": bool(self.accepted),
        }


@dataclass(frozen=True, eq=False)
class FrozenRegion:
    """The angle-independent S0 blocks of one region, ready for the hot kernel.

    ``s0x``, ``s0p`` and ``out`` are the :func:`reduction.split_s0` blocks;
    ``target_full`` is T over every output row and input column, and
    ``spike_weights`` the spike variance each column of M (inputs, then
    cluster momenta) carries into the error-probability budget.
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

    def jet(self, x):
        """``(F, J, perr, grad log perr)`` at ``x``, or None at a degenerate basis."""
        ok, *jet, _ = _kernels.reduce_jet(np.asarray(x, dtype=float)[None], self)
        return tuple(part[0] for part in jet) if ok[0] else None

    def canonical(self, x) -> np.ndarray:
        """Each free angle's representative mod pi, in [-pi/2, pi/2).  Every
        free angle is pi-periodic, because flipping the sign of a measured
        row leaves M unchanged.  ``x`` may be a stack of free-angle vectors."""
        y = np.fmod(np.asarray(x, dtype=float), math.pi)  # exact
        # each shift by pi is exact in the usual case |y| >= pi/2 (Sterbenz)
        y = np.where(y < -math.pi / 2, y + math.pi, y)
        return np.where(y >= math.pi / 2, y - math.pi, y)


def freeze_region(graph, target, r) -> FrozenRegion:
    """Precompute the angle-independent parts of a region reduction.

    Every input carries an encoded state and every output is compared with
    ``target``; the free angles map to the measured ones by the graph's
    :meth:`lattice.ComputationGraph.angle_map`.
    """
    s0x, s0p, out = split_s0(graph)
    target = np.asarray(target, dtype=float)
    n_in = 2 * len(graph.input_modes)
    if target.shape != (out.shape[0], n_in):
        raise ValueError(f"target shape {target.shape} does not match "
                         f"{out.shape[0]} output quadratures x {n_in} input quadratures")
    delta, cluster_var = resource_variances(r)
    weights = np.concatenate([np.full(n_in, delta), np.full(s0x.shape[0], cluster_var)])
    # column-major copies of split_s0's row-major views: matmul rounds the
    # kernel's products by the layout, and so picks between roots of equal
    # perr; every shipped row was found with these blocks column-major
    return FrozenRegion(graph, target, delta, weights, *graph.angle_map(),
                        *map(np.asfortranarray, (s0x, s0p, out)))


def _lm_stack(frozen: FrozenRegion, xs):
    """Levenberg-Marquardt (Levenberg 1944; Marquardt 1963) from every row
    of ``xs`` in lockstep, with the gain-ratio damping update of Madsen,
    Nielsen & Tingleff (2004).

    Each start keeps its own damping, nu and evaluation count, and stops at
    a root, at a step too small to change it, where a rejected step's
    damping update would overflow, or after _LM_ITERS eliminations.  An
    iteration solves the damped normal equations of all running starts in one ``np.linalg.solve`` (start by start if one is
    singular) and evaluates F and J at their trial points in one stacked
    :func:`_kernels.reduce_residual`.  Returns the end points, the
    elimination's mask and F and J there, and the eliminations spent per
    start."""
    x = np.array(xs, dtype=float)
    ok, f, jac = _kernels.reduce_residual(x, frozen)
    b, n = x.shape
    evals = np.ones(b, dtype=int)
    damping, nu = np.full(b, math.nan), np.full(b, 2.0)
    running = ok.copy()
    while True:
        running &= evals < _LM_ITERS
        running[running] = np.abs(f[running]).sum(axis=-1) >= ROOT_TOL
        idx = np.flatnonzero(running)
        if not idx.size:
            return x, ok, f, jac, evals
        fi, ji = f[idx, :, None], jac[idx]
        jt = np.swapaxes(ji, -1, -2)
        g, normal = jt @ fi, jt @ ji
        fresh = np.isnan(damping[idx])
        damping[idx[fresh]] = 1e-3 * normal[fresh].diagonal(0, -2, -1).max(axis=-1)
        mu = damping[idx, None, None]
        damped = normal + mu * np.eye(n)
        try:
            step = np.linalg.solve(damped, -g)
        except np.linalg.LinAlgError:  # as stacks of one; a singular system stays put
            step = np.zeros_like(g)
            for j in range(len(idx)):
                try:
                    step[j] = np.linalg.solve(damped[j:j + 1], -g[j:j + 1])[0]
                except np.linalg.LinAlgError:
                    pass
        y = x[idx] + step[..., 0]
        moved = (y != x[idx]).any(axis=-1)
        running[idx[~moved]] = False
        idx, fi, g, mu, step, y = idx[moved], fi[moved], g[moved], mu[moved], step[moved], y[moved]
        if not idx.size:
            continue
        t_ok, t_f, t_jac = _kernels.reduce_residual(y, frozen)
        evals[idx] += 1
        cost = (np.swapaxes(fi, -1, -2) @ fi)[:, 0, 0]
        new_cost = np.where(t_ok, (t_f[:, None, :] @ t_f[..., None])[:, 0, 0], math.inf)
        better = new_cost < cost
        gain = (np.swapaxes(step, -1, -2) @ (mu * step - g))[:, 0, 0]
        rho = (cost - new_cost)[better] / gain[better]
        up = idx[better]
        x[up], f[up], jac[up] = y[better], t_f[better], t_jac[better]
        damping[up] *= np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        nu[up] = 2.0
        down = idx[~better]
        overflow = damping[down] > np.finfo(float).max / nu[down]
        running[down[overflow]] = False
        down = down[~overflow]
        damping[down] *= nu[down]
        nu[down] *= 2.0


def _served(frozen: FrozenRegion, x, ranks) -> list:
    """One lockstep round: per point of the stack ``x``, the jet of one
    stacked :func:`_kernels.reduce_jet`, the SVD ``(U, sigma, V^T)`` of its J
    from one stacked ``np.linalg.svd`` and a Hessian, or None where the point
    is degenerate.  At a root (|F|_1 < ROOT_TOL) whose solve has a rank r in
    ``ranks``, the Hessian is that of log perr - lam^T F over the free
    angles, lam = U_r diag(1/sigma_r) V_r^T grad log perr, from one stacked
    :func:`_kernels.lagrangian_hessian` over all such roots; elsewhere, and
    for a rank None, it is None.  The SVD is thin unless J has fewer rows
    than columns, so V^T spans every angle direction."""
    ok, f, jac, perr, grad, terms = _kernels.reduce_jet(x, frozen)
    u, sv, vt = np.linalg.svd(jac, full_matrices=jac.shape[-2] < jac.shape[-1])
    hess = [None] * len(x)
    roots = [(j, r) for j, r in enumerate(ranks)
             if r is not None and ok[j] and np.abs(f[j]).sum() < ROOT_TOL]
    if roots:
        idx = [j for j, _ in roots]
        lam = np.stack([u[j][:, :r] @ ((vt[j][:r] @ grad[j]) / sv[j][:r]) for j, r in roots])
        for j, h in zip(idx, _kernels.lagrangian_hessian([p[idx] for p in terms], lam, frozen)):
            hess[j] = h
    rows = zip(f, jac, perr, grad, u, sv, vt, hess)
    return [row if good else None for row, good in zip(rows, ok.tolist())]


def _lockstep(frozen: FrozenRegion, solves: list, ranks: list) -> list:
    """Run solves side by side and return their results in order.

    A solve yields a point and is sent back its :func:`_served` entry, with
    the Hessian at a root if the solve's entry in ``ranks`` is a rank; each
    round serves the points of every running solve from one stacked jet."""
    results, points = [None] * len(solves), {}

    def advance(i, reply):
        try:
            points[i] = solves[i].send(reply)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(solves)):
        advance(i, None)
    while points:
        batch, points = points, {}
        served = _served(frozen, np.array(list(batch.values())), [ranks[i] for i in batch])
        for i, row in zip(batch, served):
            advance(i, row)
    return results


def _solve_block(frozen: FrozenRegion, starts) -> list:
    """Each start's solve: Levenberg-Marquardt to a root of F, then, where
    J is rank deficient there and the roots form a continuum, a descent of
    log perr along it.  Where LM ends accepted but not at a root
    (ROOT_TOL <= |F|_1 < RESIDUAL_TOL, the rounding floor of some roots),
    one :func:`_gauss_newton` step follows, one elimination, kept only where
    it lowers |F|_1.

    Returns, per start, the end point, the eliminations spent and whether
    the solve reached a root (|F|_1 < ROOT_TOL)."""
    x, ok, f, jac, evals = _lm_stack(frozen, starts)
    resid = np.abs(f).sum(axis=-1)
    near = np.flatnonzero(ok & (resid >= ROOT_TOL) & (resid < RESIDUAL_TOL))
    if near.size:
        y = np.array([_gauss_newton(*point) for point in zip(
            x[near], f[near], *np.linalg.svd(jac[near], full_matrices=False))])
        y_ok, y_f, y_jac = _kernels.reduce_residual(y, frozen)
        evals[near] += 1
        lower = y_ok & (np.abs(y_f).sum(axis=-1) < resid[near])
        x[near[lower]], f[near[lower]], jac[near[lower]] = y[lower], y_f[lower], y_jac[lower]
    root = ok & (np.abs(f).sum(axis=-1) < ROOT_TOL)
    solved = [(x[i], int(evals[i]), bool(root[i])) for i in range(len(x))]
    idx = np.flatnonzero(root)
    sv = np.linalg.svd(jac[idx], compute_uv=False)
    rank = (sv > _RANK_TOL * sv[:, :1]).sum(axis=-1)
    descend = rank < x.shape[1]
    ranks = rank[descend].tolist()
    ends = _lockstep(frozen, [_feasible_descent(x[i], r) for i, r in zip(idx[descend], ranks)],
                     ranks)
    for i, (end, n) in zip(idx[descend], ends):
        solved[i] = (end, int(evals[i]) + n, True)
    return solved


def _gauss_newton(x, f, u, sv, vt):
    """The minimum-norm Gauss-Newton step x - V diag(1/sigma) U^T F, from
    the SVD ``(U, sigma, V^T)`` of J at x, over the singular values of J
    above _RANK_TOL times the largest.  The smaller singular values that J
    has off the roots, along the root set's own directions, are not
    inverted: they would carry the step along the roots, not onto them."""
    keep = sv > _RANK_TOL * sv[0]
    return x - vt[keep].T @ ((u[:, keep].T @ f) / sv[keep])


def _retraction(x):
    """:func:`_gauss_newton` steps from x back to a root, as a solve for
    :func:`_lockstep`: returns the root and its served jet, or None, and the
    eliminations spent."""
    for evals in range(1, _RETRACT_ITERS + 1):
        jet = yield x
        if jet is None:
            break
        f, _, _, _, u, sv, vt, _ = jet
        if np.abs(f).sum() < ROOT_TOL:
            return x, jet, evals
        x = _gauss_newton(x, f, u, sv, vt)
    return x, None, evals


def _feasible_descent(x, rank):
    """Descend log perr on the root set through the root ``x``, where J has
    rank ``rank``, by modified Newton steps in the null space of J, as a
    solve for :func:`_lockstep`.

    With Z the null-space rows of the served SVD (the rank stays that at
    ``x``), the reduced gradient is g = Z grad log perr and the reduced
    Hessian is H = Z Hess(log perr - lam^T F) Z^T, from the Hessian served
    with each root: the Riemannian Hessian of log perr on the root set
    (Absil, Mahony & Sepulchre 2008, sec. 5.5).  The step -H^-1 g uses
    |eigenvalues| of the symmetrized H floored at 1e-3 of the largest, so it
    descends where H is indefinite; it is capped at _MAX_STEP.  Where the
    Newton decrement -g^T step is below _DECREMENT_TOL but the smallest
    eigenvalue lam_0 is below -_CURVATURE_TOL times the largest |eigenvalue|,
    a saddle, the step is _MAX_STEP along d = Z^T v_0, its eigenvector, with
    the sign that gives g^T v_0 <= 0, and where that is 0 a positive entry
    of largest magnitude in d (Moré & Sorensen, *Math. Programming* 16
    (1979) 1).  Either step is backtracked from full length t = 1 by
    halving, each trial retracted onto the roots, and accepted on the
    decrease _ARMIJO times that of the model: t g^T step for a Newton step,
    lam_0 (t _MAX_STEP)^2 / 2 along d.  Returns the end point and the
    eliminations spent, the one that serves ``x`` included."""
    jet = yield x
    evals = 1
    while evals < _DESCENT_EVALS:
        _, _, perr, grad, _, _, vt, hess = jet
        null = vt[rank:]
        hess = null @ hess @ null.T
        grad = null @ grad
        eig, vec = np.linalg.eigh((hess + hess.T) / 2)
        top = np.abs(eig).max()
        step = -vec @ ((vec.T @ grad) / np.maximum(np.abs(eig), 1e-3 * top))
        slope, curve = grad @ step, 0.0
        if -slope >= _DECREMENT_TOL:
            scale = min(1.0, _MAX_STEP / np.linalg.norm(step))
        elif eig[0] < -_CURVATURE_TOL * top:  # a saddle
            step, d = vec[:, 0], null.T @ vec[:, 0]
            down = grad @ step
            if down > 0 or (down == 0 and d[np.argmax(np.abs(d))] < 0):
                step = -step
            scale, slope, curve = _MAX_STEP, 0.0, eig[0] * _MAX_STEP ** 2 / 2
        else:
            break
        step, slope = scale * (null.T @ step), scale * slope
        log_perr, length = math.log(perr), 1.0
        while length >= _MIN_STEP:
            y, trial, n = yield from _retraction(x + length * step)
            evals += n
            decrease = _ARMIJO * (length * slope + length ** 2 * curve)
            if trial is not None and math.log(trial[2]) < log_perr + decrease:
                x, jet = y, trial
                break
            length /= 2.0
        else:
            break
    return x, evals


# numpy's SeedSequence hash constants and the PCG64 (XSL-RR 128/64) multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hash32(const, mult):
    """SeedSequence's 32-bit hash: each call xors the value with the running
    constant, advances the constant by ``mult`` and multiplies by it."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _uniform_starts(seed, count: int, n_free: int) -> np.ndarray:
    """``(count, n_free)`` uniform angles in [-pi, pi), bit for bit
    ``np.random.default_rng(seed).uniform(-pi, pi, (count, n_free))``,
    without importing ``numpy.random``.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of four
    and mixes it; ``generate_state(4, uint64)`` gives PCG64 its 128-bit state
    and increment (O'Neill, *PCG: A Family of Simple Fast Space-Efficient
    Statistically Good Algorithms for Random Number Generation*, HMC-CS-2014-0905).
    Each draw steps the 128-bit LCG and takes its XSL-RR output x; the
    double is (x >> 11) 2^-53, the angle -pi + 2 pi u."""
    seed = operator.index(seed)
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hashmix = _hash32(_INIT_A, _MULT_A)

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _M32
        return x ^ x >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hashout = _hash32(_INIT_B, _MULT_B)
    state = [hashout(pool[i % 4]) for i in range(8)]
    s0, s1, i0, i1 = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    x = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128  # srandom: two steps from 0
    draws = []
    for _ in range(count * n_free):
        x = (x * _PCG_MULT + inc) & _M128
        word, rot = (x >> 64 ^ x) & _M64, x >> 122
        word = (word >> rot | word << (64 - rot)) & _M64
        draws.append(-math.pi + 2.0 * math.pi * ((word >> 11) * 2.0 ** -53))
    return np.array(draws, dtype=float).reshape(count, n_free)


def _solve_all(frozen: FrozenRegion, starts: list) -> list:
    """:func:`_solve_block` of every start, in start order, over blocks of
    at most _BLOCK starts; a start's solve does not depend on the others in
    its block, so neither does the result on the block width."""
    return [solved for i in range(0, len(starts), _BLOCK)
            for solved in _solve_block(frozen, np.array(starts[i:i + _BLOCK]))]


def search(frozen: FrozenRegion, config: OptimizerConfig, warm_starts=()) -> OptResult:
    """Best accepted solution over the exact warm starts and the solves from
    every start.

    Deterministic for a fixed seed; each warm start is solved once, ahead of
    the uniform random starts that the seed draws up to ``config.restarts``:
    :func:`_uniform_starts`, the PCG64 stream of numpy's
    ``default_rng(seed)``, so the starts equal numpy's draws.
    Each warm start is also scored as a candidate in its own right, under
    the same acceptance
    rule and tie-break as the solve results, so the result is never worse
    than a feasible warm start.  Candidates are scored, compared and returned
    at their canonical angles (:meth:`FrozenRegion.canonical`), all of them
    in one stacked jet per _BLOCK candidates; a degenerate candidate scores
    residual ``_kernels.BAD_VALUE`` and perr 1.  When nothing meets the
    residual tolerance the first best rejected candidate, by residual and
    then perr, is returned, flagged.  ``config.weight_grid`` has no effect.
    """
    n_free = frozen.n_free
    starts = [np.asarray(w, dtype=float) for w in warm_starts]
    if any(w.shape != (n_free,) for w in starts):
        raise ValueError(f"every warm start must hold the region's {n_free} free angles")
    starts += list(_uniform_starts(config.seed, max(config.restarts - len(starts), 0), n_free))

    solved = _solve_all(frozen, starts)
    xs = frozen.canonical(np.array(starts[:len(warm_starts)] + [x for x, _, _ in solved]))
    resid, perr = [], []
    for i in range(0, len(xs), _BLOCK):
        ok, f, _, block_perr, *_ = _kernels.reduce_jet(xs[i:i + _BLOCK], frozen)
        resid += np.where(ok, np.abs(f).sum(axis=-1), _kernels.BAD_VALUE).tolist()
        perr += block_perr.tolist()
    spent = {"evals": sum(n for _, n, _ in solved), "descents": len(starts),
             "roots": sum(root for _, _, root in solved)}
    accepted = [(perr[i], resid[i], tuple(x)) for i, x in enumerate(xs)
                if resid[i] < RESIDUAL_TOL]
    if accepted:
        best = min(accepted)
        return OptResult(np.array(best[2]), best[1], best[0], True, **spent)
    i = min(range(len(xs)), key=lambda i: (resid[i], perr[i]))
    return OptResult(xs[i], resid[i], perr[i], False, **spent)


def evaluate_free_angles(lattice: str, r: float, angles):
    """Reference-path (residual, perr) of a CZ free-angle vector: |G - T|_1
    and :func:`gkp.gate_error_probability` of its plan's one reduction,
    through the plain reduction instead of the search kernel; re-verifies
    search results."""
    plan = gates.cz_region_plan(lattice, r, angles)
    result = gates.realize(plan)
    return float(np.abs(result.G - plan.target).sum()), gate_error_probability(plan, result)


def _region(lattice: str, r: float) -> FrozenRegion:
    return freeze_region(*gates.cz_region(lattice, r), r)


def _crosscheck(res: OptResult, lattice: str, r: float) -> None:
    """Re-score an accepted result on the reference path: the residual must
    agree to 1e-10 absolute and perr to 1e-9 relative."""
    if not res.accepted:
        return
    resid, perr = evaluate_free_angles(lattice, r, res.angles)
    if abs(resid - res.residual) > 1e-10 or abs(perr - res.perr) > 1e-9 * perr:
        raise AssertionError(f"kernel/reference mismatch at {lattice} r={r}: residual "
                             f"{res.residual} vs {resid}, perr {res.perr} vs {perr}")


def cz_search(lattice: str, r: float, config: OptimizerConfig, warm_starts=()) -> OptResult:
    """Optimize the Fourier-CZ basis on one lattice at squeezing r, from the
    caller's warm starts (each the region's free angles, as a table row's
    ``angles`` are) and :func:`search`'s uniform starts alone."""
    res = search(_region(lattice, r), config, warm_starts=warm_starts)
    _crosscheck(res, lattice, r)
    return res


def _theta_c_minima(r) -> tuple:
    """``(i, theta_c, perr)`` at each local minimum of perr over the control
    basis of :func:`gates.dbsl_cz_plan` at each squeezing ``r[i]``: a 64-point
    scan of the circle [0, pi) brackets each, and 40 golden-section steps
    refine them in lockstep (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5)."""
    def perr(i, theta_c):
        return gate_error_probability(gates.dbsl_cz_plan(r[i], theta_c))

    step = math.pi / 64
    scan = step * (np.arange(64) + 0.5)  # not at theta_c = pi/2
    f = perr(*np.broadcast_arrays(np.arange(len(r))[:, None], scan))
    i, k = np.nonzero((f <= np.roll(f, 1, axis=1)) & (f <= np.roll(f, -1, axis=1)))
    lo, hi, g = scan[k] - step, scan[k] + step, (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(40):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        left = np.less(*perr(np.r_[i, i], np.r_[c, d]).reshape(2, -1))  # a minimum in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    theta_c = np.mod((lo + hi) / 2.0, math.pi)
    return i, theta_c, perr(i, theta_c)


def dbsl_theta_c_optimum(r) -> tuple:
    """``(theta_c, perr)`` in r's shape: the control basis in [0, pi) of the
    lowest-perr closed-form DBSL CZ plan, the lowest of :func:`_theta_c_minima`."""
    i, theta_c, perr = _theta_c_minima(np.atleast_1d(np.asarray(r, dtype=float)))
    best = np.lexsort((perr, i))
    best = best[np.r_[True, np.diff(i[best]) != 0]]  # the first of each squeezing
    return np.reshape(theta_c[best], np.shape(r)), np.reshape(perr[best], np.shape(r))
