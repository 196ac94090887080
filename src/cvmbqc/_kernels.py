"""Hot numeric kernels of the CZ-basis search, in plain numpy.

The kernels evaluate the angle-independent S0 blocks of a ``FrozenRegion``
through the same elimination and error-probability formula as the reference
path, one elimination per point.  Each takes a stack of free-angle vectors,
so that the search advances all its starts, and scores all its candidates,
with one call; the elimination's per-point mask tells which points are
degenerate.  The optimizer's Levenberg-Marquardt solves read the residual and
its Jacobian from :func:`reduce_residual`; its descents and its scoring add
the error probability and its gradient from :func:`reduce_jet`; a root that
a descent is served also gets, in the same round, the Hessian that
:func:`lagrangian_hessian` assembles from the terms of that elimination.
:func:`reduce_metrics` is the residual norm and perr of one point's jet, and
:func:`nelder_mead` the simplex descent that exact roots replaced; no search
calls either, and they stay only while ``perfbench/tracing.py`` hooks them.
The search runs no worker processes: its jets run in the calling process,
inside the traced ``optimizer.search`` span, and its counts are in
``OptResult``.
"""

from __future__ import annotations

import math

import numpy as np

from .gkp import SQRT_PI, _error_terms
from .reduction import eliminate

BAD_VALUE = 1e12


def reduce_metrics(x, frozen):
    """Gate residual |F|_1 and GKP error probability of :func:`reduce_jet` at
    free angles ``x``, or ``(BAD_VALUE, 1.0)`` at a degenerate basis."""
    ok, f, _, perr, *_ = reduce_jet(np.asarray(x, dtype=float)[None], frozen)
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


def reduce_residual(x, frozen):
    """``(ok, F, J)`` at each point of the stack ``x`` of free angles: the
    first three parts of :func:`reduce_jet`, bit for bit, without the spikes,
    perr and gradient."""
    ok, f, jac = _residual_terms(x, frozen)[:3]
    if not ok.all():
        f[~ok], jac[~ok] = 0.0, 0.0
    return ok, f, jac


def _residual_terms(x, frozen):
    """F and J with the elimination's mask and the factors they are built
    from: M, U^-1, the rotated-row derivatives u' of the U block, and R,
    with K = Y U^-1 as :func:`reduction.eliminate` returns it."""
    c, s, meas = _measured_rows(x, frozen)
    m, kmat, u_inv, ok = eliminate(meas, frozen.out)
    k = meas.shape[-2]
    d_meas = c * frozen.s0p - s * frozen.s0x
    rmat = d_meas[..., :k] @ (u_inv @ meas[..., k:]) - d_meas[..., k:]
    target = frozen.target_full
    n_in = target.shape[1]
    f = (m[..., :n_in] - target).reshape(x.shape[:-1] + (-1,))
    d_f = kmat[..., :, None, :] * np.swapaxes(rmat[..., :n_in], -1, -2)[..., None, :, :]
    jac = d_f.reshape(f.shape + (k,)) @ frozen.a_map
    return ok, f, jac, m, u_inv, d_meas[..., :k], kmat, rmat


def reduce_jet(x, frozen):
    """``(ok, F, J, perr, grad, terms)`` at each point of the stack ``x`` of
    free angles.

    The free angles set the measured rows c S0x + s S0p of the region's
    ``FrozenRegion``; :func:`reduction.eliminate` then gives the reduced map
    M, with columns ordered [inputs (xxpp) | cluster momenta].
    F = vec(M[:, :n_in] - T) is the residual, the gate error, and J = dF/dx
    its Jacobian.  The spike variances are (M o M) w with the frozen
    per-column weights (delta through inputs, eps/2 through cluster
    momenta); perr is :func:`gkp.error_probability` of them and grad the
    gradient of log perr, all from one elimination.  ``ok`` is
    the elimination's mask: a point it rejects, by the rule ``reduce()``
    applies, gets F, J and grad zero and perr 1.  ``terms`` are the stacked
    factors that :func:`lagrangian_hessian` reads, meaningless at a rejected
    point.

    The stack carries one elimination per point, and every product is a
    stacked one per point, so a point's jet is bit for bit the same in any
    stack; a single point is evaluated as the stack of one.

    With K = Y U^-1, W = U^-1 V and the rotated-row derivatives
    (u'_i | v'_i) = -sin(theta_i) S0x_i + cos(theta_i) S0p_i, the rows
    R_i = u'_i W - v'_i give dM/dtheta_i = K[:, i] (x) R_i and the spike
    derivatives ds/dtheta = 2 K o (M diag(w) R^T); ``a_map`` chains both
    from the measured angles theta to the free angles x.
    """
    ok, f, jac, m, u_inv, d_u, kmat, rmat = _residual_terms(x, frozen)
    spikes = (m * m) @ frozen.spike_weights
    perr, erfc = _error_terms(spikes, frozen.delta)
    smat = (m * frozen.spike_weights) @ np.swapaxes(rmat, -1, -2)
    d_spikes = 2.0 * kmat * smat
    d_log = _dlog_perr(spikes, frozen.delta, perr, erfc)
    grad = ((d_log[..., None, :] @ d_spikes) @ frozen.a_map)[..., 0, :]
    terms = (kmat, smat, rmat, d_u, u_inv, d_spikes, d_log, spikes, perr)
    if not ok.all():
        f[~ok], jac[~ok], perr[~ok], grad[~ok] = 0.0, 0.0, 1.0, 0.0
    return ok, f, jac, perr, grad, terms


def lagrangian_hessian(terms, lam, frozen) -> np.ndarray:
    """Hessian over the free angles of log perr - lam^T F, per point of a
    stack of :func:`reduce_jet` ``terms`` with one multiplier vector ``lam``
    (laid out as F) each.

    Each row's U^-1 moves with theta_j as -U^-1 e_j u'_j U^-1, so with
    P = (u'_i U^-1)_i the second derivatives of M are
    d2M/dtheta_i dtheta_j = -P_ji K[:, j] (x) R_i - P_ij K[:, i] (x) R_j.
    Summed against the spike weights (the log-perr gradient l_s over the
    spikes) and against Lambda = [lam as M[:, :n_in] | 0], they give the
    theta-Hessian
    D^T H_s D + (K^T 2 diag(l_s) K) o (R diag(w) R^T) - P o Q - (P o Q)^T,
    Q = K^T (2 diag(l_s) M diag(w) - Lambda) R^T, with D = ds/dtheta and the
    spike Hessian of log perr H_s = diag(l_s o ((z^2 - 3/2) / v + a)) -
    l_s l_s^T / (1 - perr), where v = spike + delta, z^2 = pi / (8 v) and
    a = l_s perr / (1 - perr) (the terms of :func:`_dlog_perr`).  Every
    product is a stacked one per point, so a point's Hessian is the same in
    any stack.  ``a_map`` is linear, so the free-angle Hessian is
    A^T (theta-Hessian) A.
    """
    kmat, smat, rmat, d_u, u_inv, d_spikes, d_log, spikes, perr = terms
    k_t = np.swapaxes(kmat, -1, -2)
    n_in = frozen.target_full.shape[1]
    lam_m = lam.reshape(kmat.shape[:-2] + frozen.target_full.shape)
    qmat = k_t @ (2.0 * d_log[..., None] * smat - lam_m @ np.swapaxes(rmat[..., :n_in], -1, -2))
    # packed operand: numpy's matmul rounds the strided view u' differently
    # from the packed rows that a stack gathers from it (U^-1 is packed)
    cross = (np.ascontiguousarray(d_u) @ u_inv) * qmat
    v = spikes + frozen.delta
    q = 1.0 - perr[..., None]
    curv = d_log * ((math.pi / (8.0 * v) - 1.5) / v + d_log * perr[..., None] / q)
    grad = d_log[..., None, :] @ d_spikes
    hess = (np.swapaxes(d_spikes, -1, -2) @ (curv[..., None] * d_spikes)
            - np.swapaxes(grad, -1, -2) @ (grad / q[..., None])
            + (k_t @ (2.0 * d_log[..., None] * kmat))
            * ((rmat * frozen.spike_weights) @ np.swapaxes(rmat, -1, -2))
            - cross - np.swapaxes(cross, -1, -2))
    return frozen.a_map.T @ hess @ frozen.a_map


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
