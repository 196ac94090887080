"""Symplectic matrices of the elementary Gaussian operations.

All matrices act on quadrature vectors ordered as (x1, ..., xn, p1, ..., pn)
with hbar = 1 and vacuum variance 1/2.  A matrix S on n modes is symplectic
when S @ Omega @ S.T == Omega with Omega = [[0, I], [-I, 0]].
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "omega",
    "identity",
    "rotation",
    "squeeze",
    "shear",
    "cz",
    "beamsplitter",
    "embed",
    "compose",
    "check_symplectic",
    "n_modes",
]

SYMPLECTIC_TOL = 1e-10


def omega(n: int) -> np.ndarray:
    """Symplectic form on n modes in xxpp ordering."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def n_modes(S: np.ndarray) -> int:
    """Number of modes a 2n x 2n quadrature matrix acts on."""
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        raise ValueError(f"not a 2n x 2n matrix: shape {S.shape}")
    return S.shape[0] // 2


def identity() -> np.ndarray:
    return np.eye(2)


def rotation(theta: float) -> np.ndarray:
    """Phase rotation by angle theta; rotation(pi/2) is the Fourier gate."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def squeeze(s: float) -> np.ndarray:
    """Squeezing gate x -> x/s, p -> s*p.  Requires s != 0."""
    if s == 0:
        raise ValueError("squeeze parameter must be nonzero")
    return np.array([[1.0 / s, 0.0], [0.0, float(s)]])


def shear(p: float) -> np.ndarray:
    """Momentum shear x -> x, p -> p + p_coeff * x."""
    return np.array([[1.0, 0.0], [float(p), 1.0]])


def cz(g: float) -> np.ndarray:
    """Two-mode controlled-Z of weight g: p1 += g x2, p2 += g x1."""
    S = np.eye(4)
    S[2, 1] = g
    S[3, 0] = g
    return S


def beamsplitter() -> np.ndarray:
    """Balanced beam splitter; the arrow points from the first to the second mode."""
    b = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    S = np.zeros((4, 4))
    S[:2, :2] = b
    S[2:, 2:] = b
    return S


def embed(small: np.ndarray, target_modes, n_total: int) -> np.ndarray:
    """Embed a symplectic matrix so it acts on ``target_modes`` of ``n_total`` modes.

    Mode indices are 0-based.  The returned matrix acts as ``small`` on the
    listed modes and as the identity elsewhere.
    """
    m = n_modes(small)
    modes = list(target_modes)
    if len(modes) != m:
        raise IndexError(f"{m}-mode matrix needs {m} target modes, got {len(modes)}")
    if len(set(modes)) != len(modes):
        raise IndexError(f"duplicate target modes: {modes}")
    if any(mode < 0 or mode >= n_total for mode in modes):
        raise IndexError(f"target modes {modes} out of range for {n_total} modes")

    w = np.asarray(modes)
    S = np.eye(2 * n_total)
    S[np.ix_(w, w)] = small[:m, :m]
    S[np.ix_(w, w + n_total)] = small[:m, m:]
    S[np.ix_(w + n_total, w)] = small[m:, :m]
    S[np.ix_(w + n_total, w + n_total)] = small[m:, m:]
    return S


def compose(factors) -> np.ndarray:
    """Product of symplectic factors, the first listed acting first; public
    because tests build reference gates with it, independently of reduce()."""
    factors = list(factors)
    if not factors:
        raise ValueError("compose needs at least one factor")
    dims = {f.shape for f in factors}
    if len(dims) != 1:
        raise ValueError(f"mismatched factor shapes: {sorted(dims)}")
    out = factors[0]
    for f in factors[1:]:
        out = f @ out
    return out


def check_symplectic(S: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    """True when max entrywise |S Omega S^T - Omega| <= tol; public because
    tests check reduced gates with it, independently of reduce()."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = n_modes(S)
    om = omega(n)
    return bool(np.max(np.abs(S @ om @ S.T - om)) <= tol)
