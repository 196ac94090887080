"""Turn a computation-region graph plus homodyne bases into the implemented
gate G, the gate-noise matrix N, and the displacement matrix D.

The core is the angle-independent pre-measurement transformation
S0 = S_BS S_CZ of the region.  A homodyne basis theta, the measured-mode
angles in measured_modes order as the graph's angle map builds them, only
rotates the measured rows: the i-th measured quadrature is the row
cos(theta_i) S0x_i + sin(theta_i) S0p_i, while output rows stay unrotated.
The engine solves out the anti-squeezed x quadratures of the cluster modes
against the measured quadratures and reads off

    q_out = (Z - Y U^-1 V) q_in + Y U^-1 x_meas = (G | N) q_in + D x_meas

where q_in stacks the input-mode quadratures (xxpp) followed by the p
quadratures of all cluster modes.  The N columns therefore correspond to the
cluster-mode momenta in ascending mode order; D columns follow the graph's
measured-mode order.

Degeneracy has one rule, decided per point in :func:`eliminate`, which the
CZ-basis search kernel shares: a basis is rejected when the SVD reciprocal
condition number of U is below RCOND_MIN.  :func:`eliminate` inverts U
once, forms K = Y U^-1 and M = Z - K V from that inverse, runs the SVD only
where the cheaper Frobenius bound on rcond cannot accept U, and returns the
mask of accepted points; :func:`reduce` raises for a basis it rejects and
takes D = K.

Every function here broadcasts over leading batch axes: a graph whose
``adjacency`` (and r, t, epsilon) are stacked, and a basis with the same
batch axes in front of its angle axis, reduce in one call to a GateResult whose
matrices carry that batch shape in front.  The stack is reduced matrix by
matrix with the same LAPACK and BLAS calls as a single region, so each
point's result is bit for bit the one it gets alone; a single region is the
batch-free case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symplectic as sp
from .errors import MeasurementDegenerateError

__all__ = [
    "GateResult",
    "reduce",
    "chain",
    "restrict",
    "noise_factors",
    "premeasurement_symplectic",
    "split_s0",
    "eliminate",
]

RCOND_MIN = 1e-12
# 1/(|U|_F |U^-1|_F) never exceeds the SVD rcond.  eliminate() accepts a
# basis without an SVD when that bound is at least 100 RCOND_MIN, that is
# when |U|_F^2 |U^-1|_F^2 is at most this.
_MAX_NORM_PRODUCT_SQ = 1.0 / (100.0 * RCOND_MIN) ** 2
# The balanced beam splitter acts by this 2x2 block on the x and on the p
# quadratures of its pair.
_BS = sp.beamsplitter()[:2, :2]


@dataclass(frozen=True, eq=False)
class GateResult:
    """The (G, N, D) triple of one reduced computation region.

    Rows of all three matrices are the output quadratures in xxpp order.
    ``G`` acts on the input quadratures (xxpp), the columns of ``N`` are the
    cluster momenta in ascending mode order and the columns of ``D`` the
    measurement outcomes in the graph's measured-mode order.  A stacked
    result puts its batch axes in front of every matrix.
    """

    G: np.ndarray
    N: np.ndarray
    D: np.ndarray

    @property
    def n_outputs(self) -> int:
        return self.G.shape[-2] // 2

    @property
    def n_inputs(self) -> int:
        return self.G.shape[-1] // 2


def premeasurement_symplectic(graph) -> np.ndarray:
    """S0 = S_BS S_CZ for the region, before any homodyne basis rotation.

    Each beam splitter mixes only the x rows and the p rows of its pair, so it
    is applied as a 2x2 block to those rows, in mixing order."""
    adjacency = np.asarray(graph.adjacency, dtype=float)
    n = adjacency.shape[-1]
    s = np.broadcast_to(np.eye(2 * n), adjacency.shape[:-2] + (2 * n, 2 * n)).copy()
    s[..., n:, :n] = adjacency
    for i, j in graph.mixing_pairs:
        for rows in ([i, j], [n + i, n + j]):
            s[..., rows, :] = _BS @ s[..., rows, :]
    return s


def split_s0(graph):
    """S0 cut into its measured x rows, measured p rows and output rows (xxpp).

    All three blocks share the column order [cluster x | inputs (xxpp) |
    cluster p]: the first k = len(measured_modes) columns are the quadratures
    eliminated by the measurements.
    """
    n = graph.n_modes
    inputs = list(graph.input_modes)
    cluster = list(graph.cluster_modes)
    measured = list(graph.measured_modes)
    outputs = list(graph.output_modes)
    if len(measured) != len(cluster):
        raise ValueError(
            f"ill-formed region: {len(measured)} measured modes cannot eliminate "
            f"{len(cluster)} cluster quadratures")
    cols = cluster + inputs + [n + i for i in inputs] + [n + m for m in cluster]
    s0 = premeasurement_symplectic(graph)[..., cols]
    return (s0[..., measured, :], s0[..., [n + m for m in measured], :],
            s0[..., outputs + [n + o for o in outputs], :])


def _rcond(u: np.ndarray):
    """SVD reciprocal condition number sigma_min / sigma_max (0 if U = 0),
    one per matrix of the stack."""
    sv = np.linalg.svd(u, compute_uv=False)
    top = sv[..., 0]
    return np.divide(sv[..., -1], top, out=np.zeros_like(top), where=top > 0)[()]


def _sq_norms(a: np.ndarray):
    """Squared Frobenius norm of each matrix of the stack."""
    return np.einsum("...ij,...ij->...", a, a)


def eliminate(meas: np.ndarray, out: np.ndarray):
    """(M, K, U^-1, ok) with K = Y U^-1 and M = Z - K V for measured rows
    (U | V) and output rows (Y | Z), both split after their first
    k = len(meas) columns.

    U is inverted once, in one stacked call, and K and M are formed from
    that inverse.  ``ok`` is false, per point of a stack, where the SVD
    reciprocal condition number of U is below RCOND_MIN; the SVD runs only
    on the matrices whose lower bound 1/(|U|_F |U^-1|_F) on that rcond is
    below 100 RCOND_MIN or not finite, or on the whole stack when some U is
    exactly singular, in which case the rejected U's are replaced by I and
    the stack is inverted again.  A rejected point's U^-1 and K are zero,
    so its M is Z.
    """
    k = meas.shape[-2]
    u = meas[..., :k]
    try:
        u_inv = np.linalg.inv(u)
    except np.linalg.LinAlgError:
        ok = _rcond(u) >= RCOND_MIN
        if ok.all():
            raise
        u_inv = np.linalg.inv(np.where(ok[..., None, None], u, np.eye(k)))
    else:
        # einsum sums to inf without a numpy warning, and dividing by an inf
        # norm gives 0; "not <=" also sends a NaN bound to the SVD
        ok = np.asarray(_sq_norms(u) <= _MAX_NORM_PRODUCT_SQ / _sq_norms(u_inv))
        if not ok.all():
            ok[~ok] = _rcond(u[~ok]) >= RCOND_MIN
    if not ok.all():
        u_inv[~ok] = 0.0
    kmat = out[..., :k] @ u_inv
    return out[..., k:] - kmat @ meas[..., k:], kmat, u_inv, ok


def reduce(graph, basis) -> GateResult:
    """Reduce one region to its GateResult.

    ``basis`` is the vector of measured-mode angles in the graph's
    measured_modes order (:meth:`lattice.ComputationGraph.full_basis`),
    with any batch axes in front; output-mode angles are fixed at zero.
    Raises ValueError for a basis of the wrong length, and
    MeasurementDegenerateError when :func:`eliminate` rejects the basis, on
    a stack when it rejects any point; only then is an SVD run, over the
    rejected points, for the smallest rcond the message reports.
    """
    k = len(graph.measured_modes)
    theta = np.asarray(basis, dtype=float)[..., None]
    if theta.shape[-2:] != (k, 1):
        raise ValueError(f"expected a basis of {k} measured-mode angles, got {np.shape(basis)}")
    s0x, s0p, out = split_s0(graph)
    meas = np.cos(theta) * s0x + np.sin(theta) * s0p
    m, kmat, _, ok = eliminate(meas, out)
    if not ok.all():
        rcond = np.min(_rcond(meas[~ok][..., :k]))
        raise MeasurementDegenerateError(f"measurement basis is degenerate (rcond={rcond:.2e})")
    k2 = 2 * len(graph.input_modes)
    return GateResult(G=m[..., :k2], N=m[..., k2:], D=kmat)


def chain(first: GateResult, second: GateResult) -> GateResult:
    """Compose two computation steps: G = G2 G1, N = [G2 N1 | N2], D likewise."""
    if second.G.shape[-1] != first.G.shape[-2]:
        raise ValueError(
            f"cannot chain: first step outputs {first.n_outputs} modes, "
            f"second expects {second.n_inputs}")
    g2 = second.G
    return GateResult(
        G=g2 @ first.G,
        N=np.concatenate([g2 @ first.N, second.N], axis=-1),
        D=np.concatenate([g2 @ first.D, second.D], axis=-1),
    )


def _xxpp_rows(mat: np.ndarray, keep, n_out: int) -> np.ndarray:
    rows = [k for k in keep] + [n_out + k for k in keep]
    return mat[..., rows, :]


def restrict(result: GateResult, out_keep, in_keep) -> GateResult:
    """Keep (and reorder) a subset of output and input modes.

    Valid when the dropped modes are decoupled from the kept ones; used to
    read single-mode gates out of two-computation-mode QRL regions and the
    CZ out of the QRL CZ region's dummy paths.
    """
    no, ni = result.n_outputs, result.n_inputs
    g = _xxpp_rows(result.G, out_keep, no)
    cols = [k for k in in_keep] + [ni + k for k in in_keep]
    return GateResult(
        G=g[..., cols],
        N=_xxpp_rows(result.N, out_keep, no),
        D=_xxpp_rows(result.D, out_keep, no),
    )


def noise_factors(result: GateResult) -> np.ndarray:
    """Quadrature noise factors: sum_j N_ij^2 per output quadrature (xxpp).

    The gate-noise variance per quadrature is this times epsilon/2 under
    equal squeezing of all cluster modes.
    """
    return (result.N ** 2).sum(axis=-1)
