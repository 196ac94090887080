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
the CZ-basis search kernel, so both paths judge degeneracy by one rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import symplectic as sp
from .errors import MeasurementDegenerateError

__all__ = [
    "BasisSetting",
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


@dataclass(frozen=True)
class BasisSetting:
    """Homodyne angles x(theta) = x cos(theta) + p sin(theta) per measured mode."""

    angles: Mapping[int, float]

    @classmethod
    def from_sums(cls, mode_in: int, mode_partner: int, theta_plus: float,
                  theta_minus: float, extra: Mapping[int, float] | None = None):
        """Build from the sum/difference angles theta_pm = theta_in +- theta_partner."""
        angles = dict(extra or {})
        angles[mode_in] = 0.5 * (theta_plus + theta_minus)
        angles[mode_partner] = 0.5 * (theta_plus - theta_minus)
        return cls(angles)


@dataclass(frozen=True, eq=False)
class GateResult:
    """The (G, N, D) triple of one reduced computation region.

    Rows of all three matrices are the output quadratures in xxpp order.
    ``G`` acts on the input quadratures (xxpp), ``N`` multiplies the cluster
    momenta listed in ``contributing_modes`` and ``D`` the measurement
    outcomes listed in ``measured_labels``.
    """

    G: np.ndarray
    N: np.ndarray
    D: np.ndarray
    contributing_modes: tuple = ()
    measured_labels: tuple = ()
    epsilon: float = field(default=float("nan"))
    rcond: float = field(default=float("nan"))

    @property
    def n_outputs(self) -> int:
        return self.G.shape[0] // 2

    @property
    def n_inputs(self) -> int:
        return self.G.shape[1] // 2

    def to_dict(self, lattice: str | None = None, r: float | None = None,
                basis=None) -> dict:
        doc = {
            "G": self.G.tolist(),
            "N": self.N.tolist(),
            "D": self.D.tolist(),
            "contributing_modes": list(self.contributing_modes),
            "measured_modes": list(self.measured_labels),
            "epsilon": self.epsilon,
        }
        if lattice is not None:
            doc["lattice"] = lattice
        if r is not None:
            doc["r"] = r
        if basis is not None:
            angles = basis.angles if isinstance(basis, BasisSetting) else basis
            doc["basis"] = {str(k): float(v) for k, v in dict(angles).items()}
        return doc


def premeasurement_symplectic(graph) -> np.ndarray:
    """S0 = S_BS S_CZ for the region, before any homodyne basis rotation."""
    n = graph.n_modes
    s = np.eye(2 * n)
    s[n:, :n] = np.asarray(graph.adjacency, dtype=float)
    for i, j in graph.mixing_pairs:
        s = sp.embed(sp.beamsplitter(), [i, j], n) @ s
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


def eliminate(meas: np.ndarray, out: np.ndarray):
    """(M, rcond) with M = Z - Y U^-1 V for measured rows (U | V) and output
    rows (Y | Z), both split after their first k = len(meas) columns.

    Raises MeasurementDegenerateError when the reciprocal condition number
    of U is below RCOND_MIN.
    """
    k = meas.shape[0]
    u = meas[:, :k]
    sv = np.linalg.svd(u, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if rcond < RCOND_MIN:
        raise MeasurementDegenerateError(
            f"measurement basis is degenerate (rcond={rcond:.2e})")
    return out[:, k:] - out[:, :k] @ np.linalg.solve(u, meas[:, k:]), rcond


def reduce(graph, basis) -> GateResult:
    """Reduce one region to its GateResult.

    ``basis`` must contain one angle per measured mode; output-mode angles are
    fixed at zero.  Raises MeasurementDegenerateError when the basis leaves
    the elimination system singular (reciprocal condition number below
    RCOND_MIN).
    """
    angles = basis.angles if isinstance(basis, BasisSetting) else basis
    measured = list(graph.measured_modes)
    missing = [m for m in measured if m not in angles]
    if missing:
        raise ValueError(f"basis missing angles for measured modes {missing}")
    s0x, s0p, out = split_s0(graph)
    theta = np.array([angles[m] for m in measured], dtype=float).reshape(-1, 1)
    meas = np.cos(theta) * s0x + np.sin(theta) * s0p
    m, rcond = eliminate(meas, out)
    k = len(measured)
    d = np.linalg.solve(meas[:, :k].T, out[:, :k].T).T
    k2 = 2 * len(graph.input_modes)
    labels = getattr(graph, "labels", tuple(str(i) for i in range(graph.n_modes)))
    return GateResult(
        G=m[:, :k2],
        N=m[:, k2:],
        D=d,
        contributing_modes=tuple(labels[m_] for m_ in graph.cluster_modes),
        measured_labels=tuple(labels[m_] for m_ in measured),
        epsilon=getattr(graph, "epsilon", float("nan")),
        rcond=rcond,
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
        contributing_modes=first.contributing_modes + second.contributing_modes,
        measured_labels=first.measured_labels + second.measured_labels,
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
        contributing_modes=result.contributing_modes,
        measured_labels=result.measured_labels,
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
        contributing_modes=tuple(m for r in results for m in r.contributing_modes),
        measured_labels=tuple(m for r in results for m in r.measured_labels),
        epsilon=results[0].epsilon,
        rcond=float(np.min([r.rcond for r in results])),
    )


def noise_factors(result: GateResult) -> np.ndarray:
    """Quadrature noise factors: sum_j N_ij^2 per output quadrature (xxpp).

    The gate-noise variance per quadrature is this times epsilon/2 under
    equal squeezing of all cluster modes.
    """
    return (result.N ** 2).sum(axis=1)
