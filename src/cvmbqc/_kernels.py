"""Hot numeric kernels of the CZ-basis search, in plain numpy.

The optimizer evaluates the graph reduction and the GKP error probability
tens of thousands of times per local descent.  :func:`reduce_metrics` scores
one free-angle vector against the angle-independent S0 blocks of a
``FrozenRegion`` through the same elimination and error-probability
functions as the reference path; :func:`nelder_mead` descends any scalar
objective.  Time them with ``python3 perfbench/run.py --trace 1``
(``kernels.eval_us``, ``kernels.descent_s``).
"""

from __future__ import annotations

import numpy as np

from .errors import MeasurementDegenerateError
from .gkp import error_probability
from .reduction import eliminate

BAD_VALUE = 1e12


def reduce_metrics(x, frozen):
    """Gate residual and GKP error probability for free angles ``x``.

    The free angles set the measured rows c S0x + s S0p of the region's
    ``FrozenRegion``; :func:`reduction.eliminate` then gives the reduced map
    M, with input columns ordered [real inputs (xxpp) | dummy inputs (xxpp) |
    cluster momenta].  The residual is |M[:, :n_in] - [T | 0]|_1, the gate
    error plus any leakage from dummy inputs.  The spike variances are
    (M o M) w with the frozen per-column weights (delta through real inputs,
    vacuum 1/2 through dummies, eps/2 through cluster momenta), and perr is
    :func:`gkp.error_probability` of them.  A basis whose elimination block
    has an SVD rcond below ``reduction.RCOND_MIN``, the rule ``reduce()``
    applies, gives ``(BAD_VALUE, 1.0)``; ``eliminate`` computes that SVD only
    for the rare basis that its Frobenius bound on rcond cannot accept, so a
    typical evaluation costs one LU solve and no SVD.
    """
    theta = (frozen.theta_base + frozen.a_map @ x).reshape(-1, 1)
    try:
        m, _ = eliminate(np.cos(theta) * frozen.s0x + np.sin(theta) * frozen.s0p,
                         frozen.out)
    except MeasurementDegenerateError:
        return BAD_VALUE, 1.0
    target = frozen.target_full
    resid = float(np.abs(m[:, :target.shape[1]] - target).sum())
    return resid, error_probability((m * m) @ frozen.spike_weights, frozen.delta)


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
