"""Independent verification of the reduction engine.

Two oracles live here.  The covariance oracle assembles the pre-measurement
circuit of a plan (squeezers, CZ network, mixing beam splitters, basis
rotations) by direct symplectic composition and checks the feed-forward
channel of the homodyne measurements against the reduction's (G, N): the
displacement-corrected output must have mean map G and covariance
G cov_in G^T + (eps/2) N N^T.  The correction gain is recovered oracle-side
as the unique gain decorrelating the output from the anti-squeezed initial
cluster quadratures, never from reduction intermediates.

The grid oracle evaluates the closed-form output Wigner function of a
single-mode identity step (a chain of Gaussian convolutions and envelopes)
by discrete convolution and compares second moments against exact
post-selected (outcome-zero) conditioning of the covariance oracle.  The two
oracles deliberately check different states: post-selection keeps the
Gaussian envelopes of finite anti-squeezing, the feed-forward channel
removes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from . import symplectic as sp
from .errors import DegenerateConditioningError
from .gates import GatePlan, basis_for, realize
from .reduction import noise_factors

TARGET_RESIDUAL_TOL = 1e-5

__all__ = [
    "GaussianState",
    "vacuum",
    "evolve",
    "condition_homodyne",
    "simulate_region",
    "verify_plan",
    "wigner_limit_check",
]


@dataclass
class GaussianState:
    """Gaussian state as mean vector and covariance in xxpp ordering."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.mean.shape[0] // 2

    def uncertainty_ok(self, tol: float = 1e-9) -> bool:
        om = sp.omega(self.n_modes)
        eig = np.linalg.eigvalsh(self.cov + 0.5j * om)
        return bool(eig.min() > -tol)


def vacuum(n: int) -> GaussianState:
    return GaussianState(np.zeros(2 * n), 0.5 * np.eye(2 * n))


def evolve(state: GaussianState, S: np.ndarray) -> GaussianState:
    if S.shape[0] != 2 * state.n_modes:
        raise ValueError(f"{S.shape} matrix on {state.n_modes}-mode state")
    return GaussianState(S @ state.mean, S @ state.cov @ S.T)


def condition_homodyne(state: GaussianState, mode: int, angle: float,
                       outcome: float = 0.0) -> GaussianState:
    """Condition on measuring x(angle) of one mode; the mode is removed."""
    n = state.n_modes
    if not 0 <= mode < n:
        raise IndexError(f"mode {mode} out of range for {n} modes")
    st = evolve(state, sp.embed(sp.rotation(angle), [mode], n))
    a = mode
    var = st.cov[a, a]
    if var < 1e-14:
        raise DegenerateConditioningError(
            f"measured quadrature of mode {mode} has variance {var:.2e}")
    c = st.cov[:, a]
    mean = st.mean + (outcome - st.mean[a]) * c / var
    cov = st.cov - np.outer(c, c) / var
    keep = [i for i in range(2 * n) if i not in (a, n + a)]
    return GaussianState(mean[keep], cov[np.ix_(keep, keep)])


def _cluster_vars(epsilon: float) -> tuple:
    return 0.5 / epsilon, 0.5 * epsilon


def simulate_region(graph, angles, probe: GaussianState | None = None,
                    outcome: float = 0.0) -> GaussianState:
    """Exact post-selected simulation of one region; returns the output state.

    Inputs carry ``probe`` (vacuum by default), cluster modes are momentum
    squeezed to variance epsilon/2, and every measured mode is conditioned on
    ``outcome`` in its own basis.
    """
    n = graph.n_modes
    inputs = list(graph.input_modes)
    if probe is None:
        probe = vacuum(len(inputs))
    vx, vp = _cluster_vars(graph.epsilon)
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    for pos, m in enumerate(inputs):
        mean[m] = probe.mean[pos]
        mean[n + m] = probe.mean[len(inputs) + pos]
    pidx = inputs + [n + m for m in inputs]
    cov[np.ix_(pidx, pidx)] = probe.cov
    for m in range(n):
        if m not in inputs:
            cov[m, m] = vx
            cov[n + m, n + m] = vp
    state = GaussianState(mean, cov)

    s_cz = np.eye(2 * n)
    s_cz[n:, :n] = np.asarray(graph.adjacency, dtype=float)
    state = evolve(state, s_cz)
    for i, j in graph.mixing_pairs:
        state = evolve(state, sp.embed(sp.beamsplitter(), [i, j], n))

    remaining = list(range(n))
    for m in sorted(graph.measured_modes, reverse=True):
        state = condition_homodyne(state, remaining.index(m), angles[m], outcome)
        remaining.remove(m)
    order = [remaining.index(o) for o in graph.output_modes]
    idx = order + [len(remaining) + o for o in order]
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


class _PlanCircuit:
    """Direct symplectic assembly of a plan's full pre-measurement circuit."""

    def __init__(self, plan: GatePlan):
        self.n_logical = len(plan.steps[0].in_keep)
        self.n_total = total = self.n_logical + sum(
            t.graph.n_modes - len(t.in_keep) for t in plan.steps)

        self.sigma0 = np.full(2 * total, 0.5)
        self.meas_rows = []
        self.anc_x_cols = []
        self.dummy_modes = []
        s_tot = np.eye(2 * total)
        active = list(range(self.n_logical))
        cursor = self.n_logical

        for track in plan.steps:
            g = track.graph
            mode_map = {}
            for pos, m in enumerate(g.input_modes):
                if pos in track.in_keep:
                    mode_map[m] = active[track.in_keep.index(pos)]
                else:
                    mode_map[m] = cursor
                    self.dummy_modes.append(cursor)
                    cursor += 1
            vx, vp = _cluster_vars(g.epsilon)
            for m in range(g.n_modes):
                if m not in mode_map:
                    mode_map[m] = cursor
                    self.sigma0[cursor] = vx
                    self.sigma0[total + cursor] = vp
                    self.anc_x_cols.append(cursor)
                    cursor += 1

            def emb(mat, small_modes):
                return sp.embed(mat, [mode_map[m] for m in small_modes], total)

            s_cz = np.eye(2 * g.n_modes)
            s_cz[g.n_modes:, :g.n_modes] = np.asarray(g.adjacency, dtype=float)
            s_tot = emb(s_cz, range(g.n_modes)) @ s_tot
            for i, j in g.mixing_pairs:
                s_tot = emb(sp.beamsplitter(), [i, j]) @ s_tot
            for m in g.measured_modes:
                s_tot = emb(sp.rotation(track.angles[m]), [m]) @ s_tot
                self.meas_rows.append(mode_map[m])
            active = [mode_map[g.output_modes[pos]] for pos in track.out_keep]
        self.outputs = active
        self.s_tot = s_tot

    def feedforward_map(self) -> np.ndarray:
        """Rows of (q_out - D_hat x_meas) over the initial quadratures; the gain
        D_hat is fixed by decorrelation from the initial anti-squeezed x's."""
        t = self.n_total
        rows = self.s_tot[list(self.outputs) + [t + o for o in self.outputs], :]
        meas = self.s_tot[self.meas_rows, :]
        cov_out_anc = (rows * self.sigma0)[:, self.anc_x_cols]
        cov_meas_anc = (meas * self.sigma0)[:, self.anc_x_cols]
        d_hat = np.linalg.solve(cov_meas_anc.T, cov_out_anc.T).T
        return rows - d_hat @ meas


def verify_plan(plan: GatePlan, tol: float = 1e-9) -> dict:
    """Check a plan's (G, N) against the independent circuit oracle.

    The feed-forward channel map must transport probe means by G, produce
    zero response on dummy inputs, match N on the cluster momenta, and give
    output covariance G cov_in G^T + (eps/2) N N^T for vacuum and three
    squeezed/rotated probes.  The realized G must also hit the plan's declared
    target within the optimizer acceptance tolerance.
    """
    result = realize(plan)
    circuit = _PlanCircuit(plan)
    t = circuit.n_total
    k = circuit.n_logical
    m_eff = circuit.feedforward_map()

    probe_cols = list(range(k)) + [t + i for i in range(k)]
    max_mean_dev = float(np.abs(m_eff[:, probe_cols] - result.G).max())
    max_noise_dev = float(np.abs(m_eff[:, [t + c for c in circuit.anc_x_cols]]
                                 - result.N).max())
    dummy_cols = circuit.dummy_modes + [t + c for c in circuit.dummy_modes]
    max_dummy_dev = float(np.abs(m_eff[:, dummy_cols]).max()) if dummy_cols else 0.0

    eps = result.epsilon
    rng = np.random.default_rng(20200527)
    probes = [0.5 * np.eye(2 * k)]
    for _ in range(3):
        s = np.eye(2 * k)
        for mode in range(k):
            s = s @ sp.embed(sp.rotation(rng.uniform(-math.pi, math.pi)), [mode], k)
            s = s @ sp.embed(sp.squeeze(math.exp(rng.uniform(-0.6, 0.6))), [mode], k)
        probes.append(s @ (0.5 * np.eye(2 * k)) @ s.T)
    max_cov_dev = 0.0
    for cov_in in probes:
        cov0 = np.diag(circuit.sigma0)
        cov0[np.ix_(probe_cols, probe_cols)] = cov_in
        cov_ff = m_eff @ cov0 @ m_eff.T
        cov_pred = result.G @ cov_in @ result.G.T + 0.5 * eps * (result.N @ result.N.T)
        max_cov_dev = max(max_cov_dev, float(np.abs(cov_ff - cov_pred).max()))

    cov_ff = m_eff @ np.diag(circuit.sigma0) @ m_eff.T
    var_pred = (0.5 * result.G @ result.G.T).diagonal() + 0.5 * eps * noise_factors(result)
    max_var_dev = float(np.abs(cov_ff.diagonal() - var_pred).max())

    target_resid = float(np.abs(result.G - plan.target).sum())
    dev = max(max_mean_dev, max_cov_dev, max_noise_dev, max_dummy_dev, max_var_dev)
    return {
        "plan": f"{plan.lattice}:{plan.gate_id}",
        "r": plan.r,
        "max_mean_dev": max_mean_dev,
        "max_cov_dev": max_cov_dev,
        "max_noise_dev": max_noise_dev,
        "max_dummy_dev": max_dummy_dev,
        "max_var_dev": max_var_dev,
        "target_resid": target_resid,
        "pass": bool(dev <= tol and target_resid < TARGET_RESIDUAL_TOL),
    }


# ------------------------------------------------------------- Wigner grid

def _gaussian_kernel(x: np.ndarray, delta: float) -> np.ndarray:
    var = 0.5 * delta
    k = np.exp(-x ** 2 / (2.0 * var))
    return k / k.sum()


def _convolve_same(w: np.ndarray, kern: np.ndarray, axis: int) -> np.ndarray:
    """Linear convolution of every line of ``w`` along ``axis`` with ``kern``,
    cut to the centred ``n`` points of the full result (zero-padded FFT)."""
    n = w.shape[axis]
    size = 2 * n - 1
    shape = (-1, 1) if axis == 0 else (1, -1)
    spec = np.fft.rfft(w, size, axis=axis) * np.fft.rfft(kern, size).reshape(shape)
    start = (n - 1) // 2
    return np.fft.irfft(spec, size, axis=axis).take(range(start, start + n), axis=axis)


def _apply_pipeline(w: np.ndarray, x: np.ndarray, ops) -> np.ndarray:
    """Sequentially apply ('conv'|'env', axis, delta) steps on the (x, p) grid.

    Infinite-delta convolutions flatten the axis and zero-delta envelopes
    collapse it onto the central bin; both arise only in the t = 0 limit.
    """
    npts = x.size
    c0 = npts // 2
    span = x[-1] - x[0]
    for kind, axis, delta in ops:
        if kind == "conv":
            if delta == 0.0:
                continue
            if not np.isfinite(delta) or math.sqrt(0.5 * delta) > 10.0 * span:
                w = np.repeat(w.mean(axis=axis, keepdims=True), npts, axis=axis)
                continue
            w = _convolve_same(w, _gaussian_kernel(x, delta), axis)
        elif kind == "env":
            if not np.isfinite(delta):
                continue
            if delta == 0.0:
                sl = w.take(c0, axis=axis)
                w = np.zeros_like(w)
                if axis == 0:
                    w[c0, :] = sl
                else:
                    w[:, c0] = sl
                continue
            prof = np.exp(-x ** 2 / delta)  # envelope variance delta/2
            w = w * (prof.reshape(-1, 1) if axis == 0 else prof.reshape(1, -1))
        else:
            raise ValueError(kind)
    return w


def _identity_step_pipeline(lattice: str, t: float, eps: float):
    """Convolution/envelope chain of the one-step identity-gate Wigner map;
    each convolution G_d pairs with a G_{1/d} envelope in the conjugate
    quadrature."""
    if lattice == "DBSL":
        deltas = [eps / (16 * t ** 4) if t else math.inf, 4 * t * t * eps,
                  eps / (4 * t * t) if t else math.inf, eps]
    elif lattice == "BSL":
        deltas = [eps / (4 * t ** 4) if t else math.inf, 2 * t * t * eps,
                  eps / (2 * t * t) if t else math.inf, eps]
    else:
        raise ValueError(f"no closed-form pipeline for {lattice!r}")
    ops = []
    for i, d in enumerate(deltas):
        axis = 0 if i % 2 == 0 else 1  # convolutions alternate x, p, x, p
        if np.isfinite(d) and d > 0.0:
            env = 1.0 / d
        else:
            env = 0.0 if not np.isfinite(d) else math.inf
        ops.append(("conv", axis, d))
        ops.append(("env", 1 - axis, env))
    return ops


def _mbsl_wigner(w, x, t, eps):
    """MBSL theta_c = pi/2 identity-step map; one integral mixes scales and is
    applied as an explicit quadrature matrix along x."""
    a = eps / (4 * t * t) if t else math.inf
    w = _apply_pipeline(w, x, [("conv", 0, a), ("env", 1, 4 * t * t / eps if t else 0.0),
                               ("conv", 1, 2 * eps)])
    dx = x[1] - x[0]
    xi = x.reshape(-1, 1)
    xj = x.reshape(1, -1)
    q = np.exp(-((2 * xj - xi) ** 2) * eps)  # G_{1/eps}(2 eta - x)
    if np.isfinite(a):
        q = q * np.exp(-((xi - xj) ** 2) / a)  # G_a(eta), eta = x - x'
    w = (q * dx) @ w
    prof_x = np.exp(-x ** 2 * eps)
    prof_p = np.exp(-x ** 2 / (2 * eps + 4 * t * t / eps))
    return w * prof_x.reshape(-1, 1) * prof_p.reshape(1, -1)


def _grid_moments(w, x):
    dx = x[1] - x[0]
    mass = w.sum() * dx * dx
    xx = x.reshape(-1, 1)
    pp = x.reshape(1, -1)
    mx = (w * xx).sum() * dx * dx / mass
    mp = (w * pp).sum() * dx * dx / mass
    vx = (w * (xx - mx) ** 2).sum() * dx * dx / mass
    vp = (w * (pp - mp) ** 2).sum() * dx * dx / mass
    cxp = (w * (xx - mx) * (pp - mp)).sum() * dx * dx / mass
    return vx, vp, cxp


def wigner_limit_check(lattice: str, r: float, npts: int = 513,
                       n_sigma: float = 6.5, t_override: float | None = None,
                       probe_cov: np.ndarray | None = None) -> dict:
    """Compare the identity-step output Wigner moments against the covariance
    oracle, and support the t = 0 no-information limit.

    The closed-form Wigner map is post-selected on zero outcomes, so the
    reference is exact outcome-zero conditioning of the same region; at t = 0
    the output must carry the moments of the bare squeezed mode,
    (1/(2 eps), eps/2).
    """
    if lattice not in ("DBSL", "BSL", "MBSL"):
        raise ValueError(f"no grid pipeline for lattice {lattice!r}")
    if npts < 256:
        raise ValueError("grid too coarse: need at least 256 points per axis")
    npts |= 1  # odd grid keeps the origin on a sample point
    eps = lat.effective_epsilon(r)
    t = lat.edge_weight(lattice, r) if t_override is None else t_override
    if probe_cov is None:
        s = sp.rotation(0.7) @ sp.squeeze(1.35)
        probe_cov = s @ (0.5 * np.eye(2)) @ s.T

    extent = n_sigma * math.sqrt(max(0.5 / eps, float(np.abs(probe_cov).max()), 1.0))
    x = np.linspace(-extent, extent, npts)
    prec = np.linalg.inv(probe_cov)
    xx = x.reshape(-1, 1)
    pp = x.reshape(1, -1)
    w0 = np.exp(-0.5 * (prec[0, 0] * xx ** 2 + 2 * prec[0, 1] * xx * pp
                        + prec[1, 1] * pp ** 2))

    if lattice == "MBSL":
        w = _mbsl_wigner(w0, x, t, eps)
    else:
        w = _apply_pipeline(w0, x, _identity_step_pipeline(lattice, t, eps))
    vx, vp, cxp = _grid_moments(w, x)

    if t == 0.0:
        ref = np.diag([0.5 / eps, 0.5 * eps])
    else:
        params = lat.LatticeParams.from_r(lattice, r)
        graph = lat.single_step_graph(params)
        angles = basis_for(lattice, "I", r).steps[0].angles
        out = simulate_region(graph, angles, GaussianState(np.zeros(2), probe_cov))
        ref = out.cov

    grid = np.array([[vx, cxp], [cxp, vp]])
    rel = np.abs(grid - ref) / np.abs(np.diag(ref)).max()
    max_rel = float(rel.max())
    return {
        "lattice": lattice,
        "r": r,
        "t": t,
        "grid_moments": grid.tolist(),
        "reference_moments": np.asarray(ref).tolist(),
        "max_rel_dev": max_rel,
        "pass": bool(max_rel < 1e-4),
    }
