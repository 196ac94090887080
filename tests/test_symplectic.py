import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmbqc import symplectic as sp

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def test_rotation_pi_half_is_fourier():
    assert np.allclose(sp.rotation(math.pi / 2), [[0, 1], [-1, 0]], atol=1e-15)


def test_rotation_zero_is_identity():
    assert np.allclose(sp.rotation(0.0), np.eye(2), atol=1e-15)


def test_cz_zero_is_identity():
    assert np.allclose(sp.cz(0.0), np.eye(4), atol=1e-15)


def test_beamsplitter_matrix():
    b = np.array([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]]) / np.sqrt(2)
    assert np.allclose(sp.beamsplitter(), b, atol=1e-15)


def test_squeeze_zero_rejected():
    with pytest.raises(ValueError):
        sp.squeeze(0.0)


@pytest.mark.parametrize("kind,param", [
    ("identity", None), ("rotation", 0.7), ("squeeze", 1.3), ("squeeze", -0.4),
    ("shear", -2.1), ("cz", 0.9), ("beamsplitter", None),
])
def test_gaussian_unitaries_are_symplectic(kind, param):
    S = getattr(sp, kind)(*(() if param is None else (param,)))
    assert sp.check_symplectic(S, 1e-10)
    assert abs(np.linalg.det(S) - 1.0) < 1e-8


def test_check_symplectic_detects_perturbation():
    S = np.eye(4)
    S[0, 1] += 1e-3
    assert not sp.check_symplectic(S, 1e-10)


def test_check_symplectic_rejects_odd_dims():
    with pytest.raises(ValueError):
        sp.check_symplectic(np.eye(3))


def test_embed_single_mode_identity_case():
    R = sp.rotation(0.3)
    assert np.allclose(sp.embed(R, [0], 1), R, atol=1e-15)


def test_embed_cz_index_arithmetic():
    g = 0.7
    n = 5
    S = sp.embed(sp.cz(g), [1, 3], n)
    direct = np.eye(2 * n)
    direct[n + 1, 3] = g
    direct[n + 3, 1] = g
    assert np.allclose(S, direct, atol=1e-15)
    # permutation-conjugation construction must agree
    perm = [1, 3, 0, 2, 4]
    P = np.zeros((n, n))
    for new, old in enumerate(perm):
        P[old, new] = 1.0
    P2 = np.block([[P, np.zeros((n, n))], [np.zeros((n, n)), P]])
    big = sp.embed(sp.cz(g), [0, 1], n)
    assert np.allclose(P2 @ big @ P2.T, S, atol=1e-14)


def test_embed_beamsplitter_block():
    S = sp.embed(sp.beamsplitter(), [0, 1], 7)
    n = 7
    b = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    assert np.allclose(S[:2, :2], b, atol=1e-15)
    assert np.allclose(S[n:n + 2, n:n + 2], b, atol=1e-15)
    assert np.allclose(S[2:n, 2:n], np.eye(5), atol=1e-15)


def test_embed_validates_indices():
    with pytest.raises(IndexError):
        sp.embed(sp.cz(1.0), [1, 1], 3)
    with pytest.raises(IndexError):
        sp.embed(sp.cz(1.0), [1, 5], 3)
    with pytest.raises(IndexError):
        sp.embed(sp.rotation(0.1), [0, 1], 3)


def test_compose_single_factor():
    A = sp.rotation(0.4)
    assert np.allclose(sp.compose([A]), A, atol=1e-15)


def test_compose_order_first_acts_first():
    S = sp.compose([sp.squeeze(2.0), sp.shear(1.0)])
    assert np.allclose(S, sp.shear(1.0) @ sp.squeeze(2.0), atol=1e-15)


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        sp.compose([sp.rotation(0.1), sp.cz(1.0)])


@given(a=ANGLES, b=ANGLES)
@settings(max_examples=60, deadline=None)
def test_rotation_group(a, b):
    assert np.allclose(sp.compose([sp.rotation(a), sp.rotation(b)]),
                       sp.rotation(a + b), atol=1e-12)


@given(a=st.floats(0.2, 4.0), b=st.floats(0.2, 4.0))
@settings(max_examples=60, deadline=None)
def test_squeeze_group(a, b):
    assert np.allclose(sp.compose([sp.squeeze(a), sp.squeeze(b)]),
                       sp.squeeze(a * b), atol=1e-12)


@given(a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_shear_group(a, b):
    assert np.allclose(sp.compose([sp.shear(a), sp.shear(b)]),
                       sp.shear(a + b), atol=1e-12)


@given(angles=st.lists(ANGLES, min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_compose_preserves_symplectic(angles):
    factors = [sp.embed(sp.rotation(a), [i % 3], 3) for i, a in enumerate(angles)]
    factors.append(sp.embed(sp.cz(0.6), [0, 2], 3))
    assert sp.check_symplectic(sp.compose(factors), 1e-10)
