"""Hot numeric kernels of the CZ-basis search, in plain numpy.

The optimizer evaluates the graph reduction and the GKP error probability
tens of thousands of times per local descent.  :func:`reduce_metrics` scores
one free-angle vector against the angle-independent arrays of a
``FrozenRegion``; :func:`nelder_mead` descends any scalar objective.  Time
them with ``python3 perfbench/run.py --trace 1`` (``kernels.eval_us``,
``kernels.descent_s``).
"""

from __future__ import annotations

import math

import numpy as np

_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)
BAD_VALUE = 1e12


def reduce_metrics(x, frozen):
    """Gate residual and GKP error probability for free angles ``x``.

    The input columns of the reduced map are ordered [real inputs (xxpp) |
    dummy inputs (xxpp) | cluster momenta].  The residual is the entrywise
    1-norm of (G_real - target) plus any leakage from dummy inputs; the
    error probability budget counts encoded spikes (variance ``delta``)
    through the real columns, vacuum through the dummy columns, and cluster
    noise (variance ``eps_half``) through the rest.  Degenerate bases give
    ``(BAD_VALUE, 1.0)``.
    """
    theta = frozen.theta_base + frozen.a_map @ x
    c = np.cos(theta).reshape(-1, 1)
    s = np.sin(theta).reshape(-1, 1)
    u = c * frozen.s0x_ma + s * frozen.s0p_ma
    v = c * frozen.s0x_mi + s * frozen.s0p_mi
    det = np.linalg.det(u)
    if not np.isfinite(det) or abs(det) < 1e-250:
        return BAD_VALUE, 1.0
    w = np.linalg.solve(u, v)
    m = frozen.z - frozen.y @ w
    if not np.all(np.isfinite(m)):
        return BAD_VALUE, 1.0
    target, delta, eps_half = frozen.target_full, frozen.delta, frozen.eps_half
    n_real, n_in = frozen.n_real, frozen.n_real + frozen.n_dummy
    resid = 0.0
    prod = 1.0
    for i in range(m.shape[0]):
        spikes = 0.0
        for j in range(n_real):
            resid += abs(m[i, j] - target[i, j])
            spikes += delta * m[i, j] * m[i, j]
        for j in range(n_real, n_in):
            resid += abs(m[i, j])
            spikes += 0.5 * m[i, j] * m[i, j]
        for j in range(n_in, m.shape[1]):
            spikes += eps_half * m[i, j] * m[i, j]
        prod *= math.erf(_HALF_SQRT_PI / math.sqrt(2.0 * (spikes + delta)))
    perr = 1.0 - prod
    if perr < 1e-300:
        perr = 1e-300
    return resid, perr


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
        centroid = np.zeros(ndim)
        for p in sim[:-1]:
            centroid += p
        centroid /= npts - 1

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
