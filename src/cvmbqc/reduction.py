"""Turn a computation-region graph plus homodyne bases into the implemented
gate G, the gate-noise matrix N, and the displacement matrix D.

The core is the angle-independent pre-measurement transformation
S0 = S_BS S_CZ of the region.  A homodyne basis theta only rotates the
measured rows: the measured quadrature of mode m is the row
cos(theta_m) S0x_m + sin(theta_m) S0p_m, while output rows stay unrotated.
The engine solves out the anti-squeezed x quadratures of the cluster modes
against the measured quadratures and reads off

    q_out = (Z - Y U^-1 V) q_in + Y U^-1 x_meas = (G | N) q_in + D x_meas

where q_in stacks the input-mode quadratures (xxpp) followed by the p
quadratures of all cluster modes.  The N columns therefore correspond to the
cluster-mode momenta in ascending mode order; D columns follow the graph's
measured-mode order.

Degeneracy has one rule, decided per point in :func:`eliminate`, which the
CZ-basis search kernel shares: a basis is rejected when the SVD reciprocal
condition number of U is below RCOND_MIN.  :func:`eliminate` takes U^-1 V
and U^-1 from one solve, runs the SVD only where the cheaper Frobenius bound
on rcond cannot accept U, and returns the mask of accepted points;
:func:`reduce` raises for a basis it rejects.

Every function here broadcasts over leading batch axes: a graph whose
``adjacency`` (and r, t, epsilon) are stacked, and a basis whose angles are
arrays of the same batch shape, reduce in one call to a GateResult whose
matrices, ``epsilon`` and ``rcond`` carry that batch shape in front.  The
stack is reduced matrix by matrix with the same LAPACK and BLAS calls as a
single region, so each point's result is bit for bit the one it gets alone;
a single region is the batch-free case.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import symplectic as sp
from .errors import MeasurementDegenerateError

__all__ = [
    "basis_from_sums",
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


def basis_from_sums(mode_in: int, mode_partner: int, theta_plus: float,
                    theta_minus: float, extra: Mapping[int, float] | None = None) -> dict:
    """Homodyne angles x(theta) = x cos(theta) + p sin(theta) per measured mode,
    from the sum/difference angles theta_pm = theta_in +- theta_partner of one
    wire pair; ``extra`` holds the angles of the other measured modes."""
    angles = dict(extra or {})
    angles[mode_in] = 0.5 * (theta_plus + theta_minus)
    angles[mode_partner] = 0.5 * (theta_plus - theta_minus)
    return angles


@dataclass(frozen=True, eq=False)
class GateResult:
    """The (G, N, D) triple of one reduced computation region.

    Rows of all three matrices are the output quadratures in xxpp order.
    ``G`` acts on the input quadratures (xxpp), the columns of ``N`` are the
    cluster momenta in ascending mode order and the columns of ``D`` the
    measurement outcomes in the graph's measured-mode order.  A stacked
    result puts its batch axes in front of every matrix, ``epsilon`` and
    ``rcond``.
    """

    G: np.ndarray
    N: np.ndarray
    D: np.ndarray
    epsilon: float = field(default=float("nan"))
    rcond: float = field(default=float("nan"))

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


@functools.cache
def _identity(k: int) -> np.ndarray:
    # kept: a fresh np.eye costs as much as the rest of assembling [V | I]
    # in every search evaluation
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def _sq_norms(a: np.ndarray):
    """Squared Frobenius norm of each matrix of the stack."""
    return np.einsum("...ij,...ij->...", a, a)


def eliminate(meas: np.ndarray, out: np.ndarray):
    """(M, U^-1, ok) with M = Z - Y U^-1 V for measured rows (U | V) and
    output rows (Y | Z), both split after their first k = len(meas) columns.

    One solve against [V | I] gives U^-1 V and U^-1 together.  ``ok`` is
    false, per point of a stack, where the SVD reciprocal condition number
    of U is below RCOND_MIN; the SVD runs only on the matrices whose lower
    bound 1/(|U|_F |U^-1|_F) on that rcond is below 100 RCOND_MIN or not
    finite, or on the whole stack when some U is exactly singular, in which
    case the rejected U's are replaced by I and the stack is solved again.
    A rejected point's U^-1 V and U^-1 are zero, so its M is Z.
    """
    k = meas.shape[-2]
    u = meas[..., :k]
    rhs = np.empty(meas.shape)  # [V | I] is as wide as [U | V]
    rhs[..., :-k] = meas[..., k:]
    rhs[..., -k:] = _identity(k)
    try:
        sol = np.linalg.solve(u, rhs)
    except np.linalg.LinAlgError:
        ok = _rcond(u) >= RCOND_MIN
        if ok.all():
            raise
        sol = np.linalg.solve(np.where(ok[..., None, None], u, _identity(k)), rhs)
    else:
        # einsum sums to inf without a numpy warning, and dividing by an inf
        # norm gives 0; "not <=" also sends a NaN bound to the SVD
        ok = np.asarray(_sq_norms(u) <= _MAX_NORM_PRODUCT_SQ / _sq_norms(sol[..., -k:]))
        if not ok.all():
            ok[~ok] = _rcond(u[~ok]) >= RCOND_MIN
    if not ok.all():
        sol[~ok] = 0.0
    return out[..., k:] - out[..., :k] @ sol[..., :-k], sol[..., -k:], ok


def reduce(graph, basis) -> GateResult:
    """Reduce one region to its GateResult.

    ``basis`` maps each measured mode to its angle, a number or an array of
    the graph's batch shape; output-mode angles are fixed at zero.  Raises
    MeasurementDegenerateError when :func:`eliminate` rejects the basis, on
    a stack when it rejects any point.
    """
    measured = list(graph.measured_modes)
    missing = [m for m in measured if m not in basis]
    if missing:
        raise ValueError(f"basis missing angles for measured modes {missing}")
    s0x, s0p, out = split_s0(graph)
    theta = np.stack(np.broadcast_arrays(*[np.asarray(basis[m], dtype=float)
                                           for m in measured]), axis=-1)[..., None]
    meas = np.cos(theta) * s0x + np.sin(theta) * s0p
    m, u_inv, ok = eliminate(meas, out)
    k = len(measured)
    rcond = _rcond(meas[..., :k])
    if not ok.all():
        raise MeasurementDegenerateError(
            f"measurement basis is degenerate (rcond={np.min(rcond):.2e})")
    d = out[..., :k] @ u_inv
    k2 = 2 * len(graph.input_modes)
    return GateResult(
        G=m[..., :k2],
        N=m[..., k2:],
        D=d,
        epsilon=getattr(graph, "epsilon", float("nan")),
        rcond=rcond,
    )


def chain(first: GateResult, second: GateResult) -> GateResult:
    """Compose two computation steps: G = G2 G1, N = [G2 N1 | N2], D likewise.

    The composite keeps the smaller rcond of the two steps (NaN if either is
    unknown)."""
    if second.G.shape[-1] != first.G.shape[-2]:
        raise ValueError(
            f"cannot chain: first step outputs {first.n_outputs} modes, "
            f"second expects {second.n_inputs}")
    g2 = second.G
    return GateResult(
        G=g2 @ first.G,
        N=np.concatenate([g2 @ first.N, second.N], axis=-1),
        D=np.concatenate([g2 @ first.D, second.D], axis=-1),
        epsilon=np.where(np.isnan(first.epsilon), second.epsilon, first.epsilon)[()],
        rcond=np.minimum(first.rcond, second.rcond)[()],
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
        epsilon=result.epsilon,
        rcond=result.rcond,
    )


def noise_factors(result: GateResult) -> np.ndarray:
    """Quadrature noise factors: sum_j N_ij^2 per output quadrature (xxpp).

    The gate-noise variance per quadrature is this times epsilon/2 under
    equal squeezing of all cluster modes.
    """
    return (result.N ** 2).sum(axis=-1)
