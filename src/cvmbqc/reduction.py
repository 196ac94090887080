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
measured-mode order.  :func:`split_s0` and :func:`eliminate` are shared with
the CZ-basis search kernel, so both paths judge degeneracy by one rule: a
basis is rejected when the SVD reciprocal condition number of U is below
RCOND_MIN.  :func:`eliminate` takes U^-1 V and U^-1 from one solve and runs
the SVD only when the cheaper Frobenius bound on rcond cannot accept U.
"""

from __future__ import annotations

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
    "tensor",
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
    measurement outcomes in the graph's measured-mode order.
    """

    G: np.ndarray
    N: np.ndarray
    D: np.ndarray
    epsilon: float = field(default=float("nan"))
    rcond: float = field(default=float("nan"))

    @property
    def n_outputs(self) -> int:
        return self.G.shape[0] // 2

    @property
    def n_inputs(self) -> int:
        return self.G.shape[1] // 2


def premeasurement_symplectic(graph) -> np.ndarray:
    """S0 = S_BS S_CZ for the region, before any homodyne basis rotation.

    Each beam splitter mixes only the x rows and the p rows of its pair, so it
    is applied as a 2x2 block to those rows, in mixing order."""
    n = graph.n_modes
    s = np.eye(2 * n)
    s[n:, :n] = np.asarray(graph.adjacency, dtype=float)
    for i, j in graph.mixing_pairs:
        for rows in ([i, j], [n + i, n + j]):
            s[rows] = _BS @ s[rows]
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
    s0 = premeasurement_symplectic(graph)[:, cols]
    return (s0[measured], s0[[n + m for m in measured]],
            s0[outputs + [n + o for o in outputs]])


def _rcond(u: np.ndarray) -> float:
    """SVD reciprocal condition number sigma_min / sigma_max (0 if U = 0)."""
    sv = np.linalg.svd(u, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0


def _require_rcond(u: np.ndarray) -> None:
    rcond = _rcond(u)
    if rcond < RCOND_MIN:
        raise MeasurementDegenerateError(
            f"measurement basis is degenerate (rcond={rcond:.2e})")


def eliminate(meas: np.ndarray, out: np.ndarray):
    """(M, U^-1) with M = Z - Y U^-1 V for measured rows (U | V) and output
    rows (Y | Z), both split after their first k = len(meas) columns.

    One solve against [V | I] gives U^-1 V and U^-1 together.  Raises
    MeasurementDegenerateError when the SVD reciprocal condition number of U
    is below RCOND_MIN.  The SVD runs only when the lower bound
    1/(|U|_F |U^-1|_F) on that rcond is below 100 RCOND_MIN, not finite, or
    U is exactly singular.
    """
    k = meas.shape[0]
    u = meas[:, :k]
    try:
        sol = np.linalg.solve(u, np.hstack([meas[:, k:], np.eye(k)]))
    except np.linalg.LinAlgError:
        _require_rcond(u)
        raise
    u_inv = sol[:, -k:]
    # Python floats overflow to inf without a numpy warning; "not <=" also
    # sends a NaN bound to the SVD
    if not float(np.vdot(u, u)) * float(np.vdot(u_inv, u_inv)) <= _MAX_NORM_PRODUCT_SQ:
        _require_rcond(u)
    return out[:, k:] - out[:, :k] @ sol[:, :-k], u_inv


def reduce(graph, basis) -> GateResult:
    """Reduce one region to its GateResult.

    ``basis`` maps each measured mode to its angle; output-mode angles are
    fixed at zero.  Raises MeasurementDegenerateError when the basis leaves
    the elimination system singular (reciprocal condition number below
    RCOND_MIN).
    """
    measured = list(graph.measured_modes)
    missing = [m for m in measured if m not in basis]
    if missing:
        raise ValueError(f"basis missing angles for measured modes {missing}")
    s0x, s0p, out = split_s0(graph)
    theta = np.array([basis[m] for m in measured], dtype=float).reshape(-1, 1)
    meas = np.cos(theta) * s0x + np.sin(theta) * s0p
    m, u_inv = eliminate(meas, out)
    k = len(measured)
    d = out[:, :k] @ u_inv
    k2 = 2 * len(graph.input_modes)
    return GateResult(
        G=m[:, :k2],
        N=m[:, k2:],
        D=d,
        epsilon=getattr(graph, "epsilon", float("nan")),
        rcond=_rcond(meas[:, :k]),
    )


def chain(first: GateResult, second: GateResult) -> GateResult:
    """Compose two computation steps: G = G2 G1, N = [G2 N1 | N2], D likewise.

    The composite keeps the smaller rcond of the two steps (NaN if either is
    unknown)."""
    if second.G.shape[1] != first.G.shape[0]:
        raise ValueError(
            f"cannot chain: first step outputs {first.n_outputs} modes, "
            f"second expects {second.n_inputs}")
    g2 = second.G
    return GateResult(
        G=g2 @ first.G,
        N=np.hstack([g2 @ first.N, second.N]),
        D=np.hstack([g2 @ first.D, second.D]),
        epsilon=second.epsilon if np.isnan(first.epsilon) else first.epsilon,
        rcond=float(np.min([first.rcond, second.rcond])),
    )


def _xxpp_rows(mat: np.ndarray, keep, n_out: int) -> np.ndarray:
    rows = [k for k in keep] + [n_out + k for k in keep]
    return mat[rows, :]


def restrict(result: GateResult, out_keep, in_keep) -> GateResult:
    """Keep (and reorder) a subset of output and input modes.

    Valid when the dropped modes are decoupled from the kept ones; used to
    read single-mode gates out of two-computation-mode regions.
    """
    no, ni = result.n_outputs, result.n_inputs
    g = _xxpp_rows(result.G, out_keep, no)
    cols = [k for k in in_keep] + [ni + k for k in in_keep]
    return GateResult(
        G=g[:, cols],
        N=_xxpp_rows(result.N, out_keep, no),
        D=_xxpp_rows(result.D, out_keep, no),
        epsilon=result.epsilon,
        rcond=result.rcond,
    )


def tensor(results) -> GateResult:
    """Direct sum of parallel one-region results, keeping xxpp ordering and
    the smallest rcond of the parts."""
    results = list(results)
    n_out = sum(r.n_outputs for r in results)
    n_in = sum(r.n_inputs for r in results)
    n_noise = sum(r.N.shape[1] for r in results)
    n_meas = sum(r.D.shape[1] for r in results)
    g = np.zeros((2 * n_out, 2 * n_in))
    nn = np.zeros((2 * n_out, n_noise))
    dd = np.zeros((2 * n_out, n_meas))
    oo = ii = cc = mm = 0
    for r in results:
        ro, ri = r.n_outputs, r.n_inputs
        rows = list(range(oo, oo + ro)) + list(range(n_out + oo, n_out + oo + ro))
        cols = list(range(ii, ii + ri)) + list(range(n_in + ii, n_in + ii + ri))
        g[np.ix_(rows, cols)] = r.G
        nn[np.ix_(rows, range(cc, cc + r.N.shape[1]))] = r.N
        dd[np.ix_(rows, range(mm, mm + r.D.shape[1]))] = r.D
        oo += ro
        ii += ri
        cc += r.N.shape[1]
        mm += r.D.shape[1]
    return GateResult(
        G=g, N=nn, D=dd,
        epsilon=results[0].epsilon,
        rcond=float(np.min([r.rcond for r in results])),
    )


def noise_factors(result: GateResult) -> np.ndarray:
    """Quadrature noise factors: sum_j N_ij^2 per output quadrature (xxpp).

    The gate-noise variance per quadrature is this times epsilon/2 under
    equal squeezing of all cluster modes.
    """
    return (result.N ** 2).sum(axis=1)
