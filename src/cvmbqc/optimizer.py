"""Rediscover controlled-Z basis settings: solve G(theta) = T exactly over the
measured-mode angles, then minimize the GKP error probability on the solutions.

From each start, a Levenberg-Marquardt solve drives the gate residual
F = vec(M[:, :n_in] - [T | 0]) to a root with the analytic Jacobian of
:func:`_kernels.reduce_jet`.  Where the roots form a continuum (BSL, MBSL and
the variable-theta_c DBSL), a modified Newton descent of log perr follows
them: gradient and differenced Hessian reduced to the null space of the
Jacobian, each step retracted onto the roots by rank-truncated Gauss-Newton
steps; isolated roots (DBSL, QRL) are kept as they are.
:class:`OptimizerConfig` sets ``restarts`` and ``seed``; ``weight_grid`` is
still validated but has no effect.  Accepted solutions must implement the
target to an entrywise 1-norm below :data:`RESIDUAL_TOL`; among those the
lowest error probability wins, with residual and then lexicographic order of
the canonical angles (each free angle mod pi) as tie-breakers.

:func:`search` advances its starts in lockstep in the calling process,
with no worker processes: one Levenberg-Marquardt iteration, or one step of
every descent, evaluates the jets of all running starts in one stacked
:func:`_kernels.reduce_jet`, over start-order blocks of at most _BLOCK
starts; one stacked SVD of those Jacobians gives the descents their
retraction steps and null spaces.  Each start's trajectory is bit for bit
the one it has alone, whatever else is in the stack, so the result is that
of a loop over the starts, and a tracer of the calling process times the
whole search.  The exact warm starts and every end point are then scored
from one more stacked jet.  A degenerate point is one that the jet's mask,
the elimination's per-point degeneracy rule, rejects: no solve moves onto
one or on from one, and a candidate there scores residual
``_kernels.BAD_VALUE`` and perr 1.
:class:`OptResult` counts the eliminations, starts and roots a search spent
and found.
"""

from __future__ import annotations

import math
import numbers
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
# vectors whose singular value is below _RANK_TOL times the largest, and the
# retraction's Gauss-Newton step inverts only the singular values above it;
# every point is retracted in at most _RETRACT_ITERS such steps; the reduced
# Hessian is differenced over probes _PROBE away along the null space (near
# enough that most probes are already roots to ROOT_TOL); a
# Newton step is at most _MAX_STEP long and accepted on a strict Armijo
# decrease _ARMIJO of log perr; the descent ends when the Newton decrement
# falls below _DECREMENT_TOL, when no step down to _MIN_STEP of the Newton
# step decreases log perr, or after _DESCENT_EVALS eliminations.
_RANK_TOL = 1e-8
_RETRACT_ITERS = 8
_PROBE = 1e-7
_MAX_STEP = 0.5
_ARMIJO = 1e-4
_DECREMENT_TOL = 1e-14
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
    # starts solved, and the starts whose Levenberg-Marquardt solve reached a
    # root (|F|_1 < ROOT_TOL)
    evals: int = 0
    descents: int = 0
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
        ok, *jet = _kernels.reduce_jet(np.asarray(x, dtype=float)[None], self)
        return tuple(part[0] for part in jet) if ok[0] else None

    def canonical(self, x) -> np.ndarray:
        """Each free angle's representative mod pi: in [-pi/2, pi/2), and a
        variable theta_c in [0, pi).  Every free angle is pi-periodic,
        because flipping the sign of a measured row leaves M unchanged.
        ``x`` may be a stack of free-angle vectors."""
        y = np.fmod(np.asarray(x, dtype=float), math.pi)  # exact
        lo = np.full(y.shape[-1], -math.pi / 2)
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


def _lm_stack(frozen: FrozenRegion, xs):
    """Levenberg-Marquardt (Levenberg 1944; Marquardt 1963) from every row
    of ``xs`` in lockstep, with the gain-ratio damping update of Madsen,
    Nielsen & Tingleff (2004).

    Each start keeps its own damping, nu and evaluation count, and stops at
    a root, at a step too small to change it, or after _LM_ITERS
    eliminations.  An iteration solves the damped normal equations of all
    running starts in one ``np.linalg.solve`` and evaluates their trial
    points in one stacked jet.  Returns the end points, the
    :func:`_kernels.reduce_jet` mask and jet there, and the eliminations
    spent per start."""
    x = np.array(xs, dtype=float)
    ok, f, jac, perr, grad = _kernels.reduce_jet(x, frozen)
    b, n = x.shape
    evals = np.ones(b, dtype=int)
    damping, nu = np.full(b, math.nan), np.full(b, 2.0)
    running = ok.copy()
    while True:
        running &= evals < _LM_ITERS
        running[running] = np.abs(f[running]).sum(axis=-1) >= ROOT_TOL
        idx = np.flatnonzero(running)
        if not idx.size:
            return x, ok, f, jac, perr, grad, evals
        fi, ji = f[idx, :, None], jac[idx]
        jt = np.swapaxes(ji, -1, -2)
        g, normal = jt @ fi, jt @ ji
        fresh = np.isnan(damping[idx])
        damping[idx[fresh]] = 1e-3 * normal[fresh].diagonal(0, -2, -1).max(axis=-1)
        mu = damping[idx, None, None]
        step = np.linalg.solve(normal + mu * np.eye(n), -g)
        y = x[idx] + step[..., 0]
        moved = (y != x[idx]).any(axis=-1)
        running[idx[~moved]] = False
        idx, fi, g, mu, step, y = idx[moved], fi[moved], g[moved], mu[moved], step[moved], y[moved]
        if not idx.size:
            continue
        t_ok, t_f, t_jac, t_perr, t_grad = _kernels.reduce_jet(y, frozen)
        evals[idx] += 1
        cost = (np.swapaxes(fi, -1, -2) @ fi)[:, 0, 0]
        new_cost = np.where(t_ok, (t_f[:, None, :] @ t_f[..., None])[:, 0, 0], math.inf)
        better = new_cost < cost
        gain = (np.swapaxes(step, -1, -2) @ (mu * step - g))[:, 0, 0]
        rho = (cost - new_cost)[better] / gain[better]
        up = idx[better]
        x[up], f[up], jac[up], perr[up], grad[up] = (
            y[better], t_f[better], t_jac[better], t_perr[better], t_grad[better])
        damping[up] *= np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        nu[up] = 2.0
        down = idx[~better]
        damping[down] *= nu[down]
        nu[down] *= 2.0


def _served(ok, f, jac, perr, grad):
    """Per row of a jet stack, the jet and the SVD ``(U, sigma, V^T)`` of its
    J from one stacked ``np.linalg.svd``, or None where the row is
    degenerate.  The SVD is thin unless J has fewer rows than columns, so
    V^T spans every angle direction."""
    parts = (f, jac, perr, grad,
             *np.linalg.svd(jac, full_matrices=jac.shape[-2] < jac.shape[-1]))
    return [row if good else None for row, good in zip(zip(*parts), ok.tolist())]


def _together(solves):
    """Run solves side by side as one solve that returns their results in
    order.  A solve yields a stack of points where it needs jets and is sent
    back their :func:`_served` entries; each round of this one yields the
    points of every pending solve as one stack."""
    results = [None] * len(solves)
    pending = {}

    def advance(i, served):
        try:
            pending[i] = solves[i].send(served)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(solves)):
        advance(i, None)
    while pending:
        batch, pending = pending, {}
        served = iter((yield np.concatenate(list(batch.values()))))
        for i, xs in batch.items():
            advance(i, [next(served) for _ in xs])
    return results


def _lockstep(frozen: FrozenRegion, solves: list) -> list:
    """Run solves :func:`_together` and return their results in order: one
    stacked jet and one stacked SVD per round serve every point of every
    pending solve."""
    run, served = _together(solves), None
    while True:
        try:
            served = _served(*_kernels.reduce_jet(run.send(served), frozen))
        except StopIteration as stop:
            return stop.value


def _solve_block(frozen: FrozenRegion, starts) -> list:
    """Each start's solve: Levenberg-Marquardt to a root of F, then, where
    the roots form a continuum, a descent of log perr along it.

    Returns, per start, the end point, the eliminations spent and whether LM
    reached a root (|F|_1 < ROOT_TOL)."""
    x, ok, f, jac, perr, grad, evals = _lm_stack(frozen, starts)
    idx = np.flatnonzero(ok & (np.abs(f).sum(axis=-1) < ROOT_TOL))
    jets = _served(ok[idx], f[idx], jac[idx], perr[idx], grad[idx])
    ends = _lockstep(frozen, [_feasible_descent(x[i], jet) for i, jet in zip(idx, jets)])
    solved = [(x[i], int(evals[i]), False) for i in range(len(x))]
    for i, (end, n) in zip(idx, ends):
        solved[i] = (end, int(evals[i]) + n, True)
    return solved


def _retraction(x):
    """Minimum-norm Gauss-Newton steps -V diag(1/sigma) U^T F from x back to
    a root, over the singular values of J above _RANK_TOL times the largest,
    as a solve for :func:`_lockstep`: returns the root and its served jet,
    or None, and the eliminations spent.  The smaller singular values that J
    has off the roots, along the root set's own directions, are not
    inverted: they would carry the step along the roots, not onto them."""
    for evals in range(1, _RETRACT_ITERS + 1):
        jet, = yield x[None]
        if jet is None:
            break
        f, _, _, _, u, sv, vt = jet
        if np.abs(f).sum() < ROOT_TOL:
            return x, jet, evals
        keep = sv > _RANK_TOL * sv[0]
        x = x - vt[keep].T @ ((u[:, keep].T @ f) / sv[keep])
    return x, None, evals


def _feasible_descent(x, jet):
    """Descend log perr on the root set through the root ``x`` by modified
    Newton steps in the null space of J (Absil, Mahony & Sepulchre 2008),
    as a solve for :func:`_lockstep`.

    With Z the null-space rows of the served SVD (the rank is fixed at
    ``x``), the reduced gradient is g = Z grad log perr.  Column i of the
    reduced Hessian H is the forward difference of that gradient over a
    probe retracted from x + _PROBE Z_i, with the probe's gradient projected
    onto the probe's own null space, which carries the curvature of the
    root set; the probes of one step are retracted together.  The step
    -H^-1 g uses |eigenvalues| of the symmetrized H floored at 1e-3 of the
    largest, so it descends where H is indefinite; it is capped at _MAX_STEP
    and backtracked from unit length, each trial retracted onto the roots.
    An isolated root (J of full column rank) is returned as it is.  Returns
    the end point and the eliminations spent."""
    rank = int((jet[5] > _RANK_TOL * jet[5][0]).sum())
    evals = 0
    while rank < len(x) and evals < _DESCENT_EVALS:
        null = jet[6][rank:]
        grad = null @ jet[3]
        probes = yield from _together([_retraction(x + _PROBE * z) for z in null])
        evals += sum(n for _, _, n in probes)
        if any(probe is None for _, probe, _ in probes):
            return x, evals
        hess = [(null @ (probe[6][rank:].T @ (probe[6][rank:] @ probe[3])) - grad) / _PROBE
                for _, probe, _ in probes]
        lam, vec = np.linalg.eigh(np.add(hess, np.transpose(hess)) / 2)
        lam = np.maximum(np.abs(lam), 1e-3 * np.abs(lam).max())
        step = -vec @ ((vec.T @ grad) / lam)
        slope = grad @ step
        if not -slope >= _DECREMENT_TOL:
            break
        scale = min(1.0, _MAX_STEP / np.linalg.norm(step))
        step, slope = scale * (null.T @ step), scale * slope
        log_perr, length = math.log(jet[2]), 1.0
        while length >= _MIN_STEP:
            y, trial, n = yield from _retraction(x + length * step)
            evals += n
            if trial is not None and math.log(trial[2]) < log_perr + _ARMIJO * length * slope:
                x, jet = y, trial
                break
            length /= 2.0
        else:
            break
    return x, evals


def _solve_all(frozen: FrozenRegion, starts: list) -> list:
    """:func:`_solve_block` of every start, in start order, over blocks of
    at most _BLOCK starts; a start's solve does not depend on the others in
    its block, so neither does the result on the block width."""
    return [solved for i in range(0, len(starts), _BLOCK)
            for solved in _solve_block(frozen, np.array(starts[i:i + _BLOCK]))]


def search(frozen: FrozenRegion, config: OptimizerConfig, warm_starts=()) -> OptResult:
    """Best accepted solution over the exact warm starts and the solves from
    every start.

    Deterministic for a fixed seed; warm starts (exact and jittered) are
    prepended to the uniform random start sequence.  Each exact warm start is
    also scored as a candidate in its own right, under the same acceptance
    rule and tie-break as the solve results, so the result is never worse
    than a feasible warm start.  Candidates are scored, compared and returned
    at their canonical angles (:meth:`FrozenRegion.canonical`), all of them
    in one stacked jet per _BLOCK candidates; a degenerate candidate scores
    residual ``_kernels.BAD_VALUE`` and perr 1.  When nothing meets the
    residual tolerance the first best rejected candidate, by residual and
    then perr, is returned, flagged.  ``config.weight_grid`` has no effect.
    """
    rng = np.random.default_rng(config.seed)
    n_free = frozen.n_free
    starts = [np.asarray(w, dtype=float) for w in warm_starts]
    for w in list(starts):
        starts.append(w + rng.normal(0.0, 0.05, n_free))
    while len(starts) < config.restarts:
        starts.append(rng.uniform(-math.pi, math.pi, n_free))
    starts = starts[:max(config.restarts, 2 * len(warm_starts))]

    solved = _solve_all(frozen, starts)
    xs = frozen.canonical(np.array(starts[:len(warm_starts)] + [x for x, _, _ in solved]))
    resid, perr = [], []
    for i in range(0, len(xs), _BLOCK):
        ok, f, _, block_perr, _ = _kernels.reduce_jet(xs[i:i + _BLOCK], frozen)
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
