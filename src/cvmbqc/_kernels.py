"""Hot numeric kernels of the CZ-basis search, in plain numpy.

The optimizer solves and descends with :func:`reduce_jet`, which evaluates
the angle-independent S0 blocks of a ``FrozenRegion`` through the same
elimination and error-probability functions as the reference path, one
elimination per call.  It scores each free-angle vector with
:func:`reduce_metrics`, the residual norm and perr of that jet.
:func:`nelder_mead` is the simplex descent of the search that
exact roots replaced; no search calls it, and it stays only while
``perfbench/tracing.py`` hooks it.  Time the scoring with
``python3 perfbench/run.py --trace 1`` (``kernels.eval_us``).  The traced
spans cover only work in the traced process: the solves that
``optimizer.search`` runs in worker processes leave none, and their counts
are in ``OptResult``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MeasurementDegenerateError
from .gkp import SQRT_PI, error_probability
from .reduction import eliminate

BAD_VALUE = 1e12


def reduce_metrics(x, frozen):
    """Gate residual |F|_1 and GKP error probability of :func:`reduce_jet` at
    free angles ``x``, or ``(BAD_VALUE, 1.0)`` at a degenerate basis."""
    jet = reduce_jet(x, frozen)
    if jet is None:
        return BAD_VALUE, 1.0
    return float(np.abs(jet[0]).sum()), jet[2]


def reduce_jet(x, frozen):
    """``(F, J, perr, grad)`` at free angles ``x``, or None at a degenerate basis.

    The free angles set the measured rows c S0x + s S0p of the region's
    ``FrozenRegion``; :func:`reduction.eliminate` then gives the reduced map
    M, with input columns ordered [real inputs (xxpp) | dummy inputs (xxpp) |
    cluster momenta].  F = vec(M[:, :n_in] - [T | 0]) is the residual, the
    gate error plus any leakage from dummy inputs, and J = dF/dx its
    Jacobian.  The spike variances are (M o M) w with the frozen per-column
    weights (delta through real inputs, vacuum 1/2 through dummies, eps/2
    through cluster momenta); perr is :func:`gkp.error_probability` of them
    and grad the gradient of log perr, all from one elimination.  A basis
    whose elimination block has an SVD rcond below ``reduction.RCOND_MIN``,
    the rule ``reduce()`` applies, is degenerate.

    With K = Y U^-1, W = U^-1 V and the rotated-row derivatives
    (u'_i | v'_i) = -sin(theta_i) S0x_i + cos(theta_i) S0p_i, the rows
    R_i = u'_i W - v'_i give dM/dtheta_i = K[:, i] (x) R_i and the spike
    derivatives ds/dtheta = 2 K o (M diag(w) R^T); ``a_map`` chains both
    from the measured angles theta to the free angles x.
    """
    theta = (frozen.theta_base + frozen.a_map @ x).reshape(-1, 1)
    c, s = np.cos(theta), np.sin(theta)
    meas = c * frozen.s0x + s * frozen.s0p
    try:
        m, u_inv = eliminate(meas, frozen.out)
    except MeasurementDegenerateError:
        return None
    k = meas.shape[0]
    d_meas = c * frozen.s0p - s * frozen.s0x
    kmat = frozen.out[:, :k] @ u_inv
    rmat = d_meas[:, :k] @ (u_inv @ meas[:, k:]) - d_meas[:, k:]
    target = frozen.target_full
    n_in = target.shape[1]
    f = (m[:, :n_in] - target).ravel()
    jac = (kmat[:, None, :] * rmat[:, :n_in].T[None]).reshape(f.size, k) @ frozen.a_map
    spikes = (m * m) @ frozen.spike_weights
    perr = error_probability(spikes, frozen.delta)
    d_spikes = 2.0 * kmat * ((m * frozen.spike_weights) @ rmat.T)
    grad = (_dlog_perr(spikes, frozen.delta, perr) @ d_spikes) @ frozen.a_map
    return f, jac, perr, grad


def _dlog_perr(spikes, delta: float, perr: float) -> np.ndarray:
    """d log perr / d spike of :func:`gkp.error_probability`.

    Correction i succeeds with probability erf(z_i), z_i = sqrt(pi) /
    (2 sqrt(2 v_i)) with v_i = spike_i + delta, and dz_i/dv_i = -z_i / (2 v_i);
    so d perr / d spike_i = prod_j erf(z_j) / erf(z_i) exp(-z_i^2) z_i / (sqrt(pi) v_i).
    """
    v = np.asarray(spikes) + delta
    z = SQRT_PI / (2.0 * np.sqrt(2.0 * v))
    ok = np.array([math.erf(zi) for zi in z.tolist()])
    return np.prod(ok) / ok * np.exp(-z * z) * z / (SQRT_PI * v * perr)


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
