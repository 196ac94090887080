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

__all__ = [
    "propagate_spikes",
    "error_probability",
    "correction_shift",
    "gate_error_probability",
]

SQRT_PI = math.sqrt(math.pi)


def propagate_spikes(G: np.ndarray, sigma2, delta: float) -> np.ndarray:
    """Spike variances after a gate: delta * rowsum(G^2) + sigma2 per quadrature."""
    G = np.asarray(G, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.shape != (G.shape[0],):
        raise ValueError(
            f"sigma2 has {sigma2.shape} entries for {G.shape[0]} output quadratures")
    return delta * (G ** 2).sum(axis=1) + sigma2


def error_probability(delta_prime, delta: float) -> float:
    """Probability that at least one of the 2n quadrature corrections misbins."""
    total = np.asarray(delta_prime, dtype=float) + delta
    # 1 - prod(erf) as -expm1(sum log1p(-erfc)): small probabilities keep
    # their digits instead of cancelling against 1 at high squeezing
    log_ok = 0.0
    for v in total.tolist():
        if v <= 0:
            raise ValueError("spike variances must be positive")
        log_ok += math.log1p(-math.erfc(SQRT_PI / (2.0 * math.sqrt(2.0 * v))))
    return -math.expm1(log_ok)


def correction_shift(m: float) -> float:
    """Corrective displacement for outcome m: back to the nearest sqrt(pi) site."""
    u = m % SQRT_PI
    return -u if u < SQRT_PI / 2 else SQRT_PI - u


def gate_error_probability(plan, r: float | None = None) -> float:
    """Error probability of a gate plan with resource-matched GKP ancillas.

    The ancilla and encoded spike variance is delta = e^{-2r}/2 and the gate
    noise variances are the plan's quadrature noise factors times sech(2r)/2.
    """
    from . import gates
    from .reduction import noise_factors

    if r is None:
        r = plan.r
    elif not math.isclose(r, plan.r, rel_tol=0, abs_tol=1e-12):
        raise ValueError(f"plan was built at r={plan.r}, asked to evaluate at r={r}")
    result = gates.realize(plan)
    delta = math.exp(-2.0 * r) / 2.0
    sigma2 = noise_factors(result) / (2.0 * math.cosh(2.0 * r))
    return error_probability(propagate_spikes(result.G, sigma2, delta), delta)
