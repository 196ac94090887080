"""GKP spike-variance propagation and quadrature-correction error probability.

Approximate GKP states carry Gaussian spikes of variance delta on the
sqrt(pi) lattice.  A noisy gate G with per-quadrature noise variances sigma2
broadens the spikes to delta' = delta * sum_j G_ij^2 + sigma2_i, and each
mod-sqrt(pi) quadrature correction against a fresh ancilla of spike variance
delta succeeds with probability erf(sqrt(pi) / (2 sqrt(2 (delta'_i + delta)))).
"""

from __future__ import annotations

import math

import numpy as np

from . import gates
from . import lattice as lat
from .reduction import noise_factors

__all__ = [
    "resource_variances",
    "propagate_spikes",
    "error_probability",
    "gate_error_probability",
]

SQRT_PI = math.sqrt(math.pi)


def resource_variances(r: float) -> tuple:
    """(delta, cluster variance) at squeezing r: the spike variance
    e^{-2r}/2 of encoded states and ancillas, and the cluster-momentum
    variance sech(2r)/2 that scales a gate's noise factors."""
    return math.exp(-2.0 * r) / 2.0, 0.5 * lat.effective_epsilon(r)


def propagate_spikes(G: np.ndarray, sigma2, delta) -> np.ndarray:
    """Spike variances after a gate: delta * rowsum(G^2) + sigma2 per quadrature.

    A stack of gates takes sigma2 rows and deltas with the same leading axes."""
    G = np.asarray(G, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.shape != G.shape[:-1]:
        raise ValueError(
            f"sigma2 has {sigma2.shape} entries for {G.shape[:-1]} output quadratures")
    return np.asarray(delta)[..., None] * (G ** 2).sum(axis=-1) + sigma2


def error_probability(delta_prime, delta):
    """Probability that at least one of the 2n quadrature corrections misbins.

    Spikes with leading batch axes, and a delta of those axes or a number,
    give one probability per point, each the one that point gets alone."""
    return _error_terms(delta_prime, delta)[0]


def _error_terms(delta_prime, delta):
    """:func:`error_probability` and the flat list of the erfc of each
    correction, in the order of the spikes: the probability that it alone
    misbins."""
    total = np.asarray(delta_prime, dtype=float) + np.asarray(delta, dtype=float)[..., None]
    perr, erfc = [], []
    for row in total.reshape(-1, total.shape[-1]).tolist():
        # 1 - prod(erf) as 0 - expm1(sum log1p(-erfc)): small probabilities keep
        # their digits at high squeezing, and one that underflows is +0.0
        log_ok = 0.0
        for v in row:
            if v <= 0:
                raise ValueError("spike variances must be positive")
            erfc.append(math.erfc(SQRT_PI / (2.0 * math.sqrt(2.0 * v))))
            log_ok += math.log1p(-erfc[-1])
        perr.append(0.0 - math.expm1(log_ok))
    return (perr[0] if total.ndim == 1 else np.reshape(perr, total.shape[:-1])), erfc


def gate_error_probability(plan, result=None):
    """Error probability of a gate plan with resource-matched GKP ancillas.

    The plan is realized at its own squeezing r = ``plan.r`` (``result``, when
    the caller has realized it already), with the spike and noise variances
    of :func:`resource_variances`; the result is :func:`error_probability` of
    the spikes :func:`propagate_spikes` gives.  A plan built from an array of
    squeezings gives an array with one probability per point, each computed
    as that point's plan alone gives it.
    """
    result = gates.realize(plan) if result is None else result
    delta, cluster_var = np.moveaxis(lat.per_point(resource_variances, plan.r), -1, 0)
    spikes = propagate_spikes(result.G, cluster_var[..., None] * noise_factors(result), delta)
    return error_probability(spikes, delta)
