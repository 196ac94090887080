"""Hot numeric kernels of the CZ-basis search, in plain numpy.

The optimizer solves, descends and scores with :func:`reduce_jet`, which
evaluates the angle-independent S0 blocks of a ``FrozenRegion`` through the
same elimination and error-probability formula as the reference path, one
elimination per point.  It takes a stack of free-angle vectors, so that the
search advances all its starts, and scores all its candidates, with one
call; the elimination's per-point mask tells which points are degenerate.
:func:`reduce_metrics` is the residual norm and perr of one point's jet, and
:func:`nelder_mead` the simplex descent that exact roots replaced; no search
calls either, and they stay only while ``perfbench/tracing.py`` hooks them.
The search runs no worker processes: its jets run in the calling process,
inside the traced ``optimizer.search`` span, and its counts are in
``OptResult``.
"""

from __future__ import annotations

import numpy as np

from .gkp import SQRT_PI, _error_terms
from .reduction import eliminate

BAD_VALUE = 1e12


def reduce_metrics(x, frozen):
    """Gate residual |F|_1 and GKP error probability of :func:`reduce_jet` at
    free angles ``x``, or ``(BAD_VALUE, 1.0)`` at a degenerate basis."""
    ok, f, _, perr, _ = reduce_jet(np.asarray(x, dtype=float)[None], frozen)
    if not ok[0]:
        return BAD_VALUE, 1.0
    return float(np.abs(f[0]).sum()), float(perr[0])


def _measured_rows(x, frozen):
    """cos and sin of the measured angles at free angles ``x`` and the
    measured rows c S0x + s S0p, with the batch axes of ``x`` in front."""
    # a stacked product per point: each point's rounding is then the same
    # in any stack (a 2-D (B, n) product is not; its BLAS call depends on B)
    theta = (frozen.theta_base + (frozen.a_map @ x[..., None])[..., 0])[..., None]
    c, s = np.cos(theta), np.sin(theta)
    return c, s, c * frozen.s0x + s * frozen.s0p


def reduce_jet(x, frozen):
    """``(ok, F, J, perr, grad)`` at each point of the stack ``x`` of free
    angles.

    The free angles set the measured rows c S0x + s S0p of the region's
    ``FrozenRegion``; :func:`reduction.eliminate` then gives the reduced map
    M, with input columns ordered [real inputs (xxpp) | dummy inputs (xxpp) |
    cluster momenta].  F = vec(M[:, :n_in] - [T | 0]) is the residual, the
    gate error plus any leakage from dummy inputs, and J = dF/dx its
    Jacobian.  The spike variances are (M o M) w with the frozen per-column
    weights (delta through real inputs, vacuum 1/2 through dummies, eps/2
    through cluster momenta); perr is :func:`gkp.error_probability` of them
    and grad the gradient of log perr, all from one elimination.  ``ok`` is
    the elimination's mask: a point it rejects, by the rule ``reduce()``
    applies, gets F, J and grad zero and perr 1.

    The stack carries one elimination per point, and every product is a
    stacked one per point, so a point's jet is bit for bit the same in any
    stack; a single point is evaluated as the stack of one.

    With K = Y U^-1, W = U^-1 V and the rotated-row derivatives
    (u'_i | v'_i) = -sin(theta_i) S0x_i + cos(theta_i) S0p_i, the rows
    R_i = u'_i W - v'_i give dM/dtheta_i = K[:, i] (x) R_i and the spike
    derivatives ds/dtheta = 2 K o (M diag(w) R^T); ``a_map`` chains both
    from the measured angles theta to the free angles x.
    """
    c, s, meas = _measured_rows(x, frozen)
    m, u_inv, ok = eliminate(meas, frozen.out)
    k = meas.shape[-2]
    d_meas = c * frozen.s0p - s * frozen.s0x
    kmat = frozen.out[:, :k] @ u_inv
    rmat = d_meas[..., :k] @ (u_inv @ meas[..., k:]) - d_meas[..., k:]
    target = frozen.target_full
    n_in = target.shape[1]
    f = (m[..., :n_in] - target).reshape(x.shape[:-1] + (-1,))
    d_f = kmat[..., :, None, :] * np.swapaxes(rmat[..., :n_in], -1, -2)[..., None, :, :]
    jac = d_f.reshape(f.shape + (k,)) @ frozen.a_map
    spikes = (m * m) @ frozen.spike_weights
    perr, erfc = _error_terms(spikes, frozen.delta)
    d_spikes = 2.0 * kmat * ((m * frozen.spike_weights) @ np.swapaxes(rmat, -1, -2))
    d_log = _dlog_perr(spikes, frozen.delta, perr, erfc)
    grad = ((d_log[..., None, :] @ d_spikes) @ frozen.a_map)[..., 0, :]
    if not ok.all():
        f[~ok], jac[~ok], perr[~ok], grad[~ok] = 0.0, 0.0, 1.0, 0.0
    return ok, f, jac, perr, grad


def _dlog_perr(spikes, delta: float, perr, erfc) -> np.ndarray:
    """d log perr / d spike of :func:`gkp.error_probability`, per point of the
    stack, from the erfc of each correction that perr was summed from.

    Correction i succeeds with probability erf(z_i), z_i = sqrt(pi) /
    (2 sqrt(2 v_i)) with v_i = spike_i + delta, and dz_i/dv_i = -z_i / (2 v_i);
    so d perr / d spike_i = prod_j erf(z_j) / erf(z_i) exp(-z_i^2) z_i / (sqrt(pi) v_i).
    """
    v = spikes + delta
    z = SQRT_PI / (2.0 * np.sqrt(2.0 * v))
    ok = 1.0 - np.reshape(erfc, v.shape)
    return (np.prod(ok, axis=-1, keepdims=True) / ok * np.exp(-z * z) * z
            / (SQRT_PI * v * perr[..., None]))


def nelder_mead(f, x0, step, maxiter, ftol):
    """Derivative-free simplex descent of ``f`` from ``x0`` (Nelder & Mead 1965).

    Standard reflection/expansion/contraction/shrink steps; terminates when
    the simplex function spread drops below ``ftol`` or after ``maxiter``
    evaluations.  Returns ``(best_x, best_f, n_evals)``.
    """
    ndim = x0.shape[0]
    npts = ndim + 1
    sim = np.empty((npts, ndim))
    fval = np.empty(npts)
    for i in range(npts):
        sim[i] = x0
        if i > 0:
            sim[i, i - 1] += step
        fval[i] = f(sim[i])
    nev = npts

    while nev < maxiter:
        order = np.argsort(fval)
        sim = sim[order]
        fval = fval[order]
        if fval[-1] - fval[0] < ftol:
            break
        centroid = sim[:-1].sum(axis=0) / (npts - 1)

        xr = centroid + (centroid - sim[-1])
        fr = f(xr)
        nev += 1
        if fr < fval[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = f(xe)
            nev += 1
            if fe < fr:
                sim[-1], fval[-1] = xe, fe
            else:
                sim[-1], fval[-1] = xr, fr
        elif fr < fval[-2]:
            sim[-1], fval[-1] = xr, fr
        else:
            if fr < fval[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (sim[-1] - centroid)
            fc = f(xc)
            nev += 1
            if fc < min(fr, fval[-1]):
                sim[-1], fval[-1] = xc, fc
            else:
                for i in range(1, npts):
                    sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                    fval[i] = f(sim[i])
                nev += npts - 1

    best = int(np.argmin(fval))
    return sim[best].copy(), fval[best], nev
