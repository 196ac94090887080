import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmbqc import lattice as lat
from cvmbqc import reduction as red
from cvmbqc import symplectic as sp
from cvmbqc.errors import MeasurementDegenerateError

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def gate_form(tp, theta_plus, theta_minus):
    """S(tp) R(th+/2) S(tan(th-/2)) R(th+/2), the teleportation-style gate."""
    return sp.compose([sp.rotation(theta_plus / 2),
                       sp.squeeze(math.tan(theta_minus / 2)),
                       sp.rotation(theta_plus / 2), sp.squeeze(tp)])


class TestTeleportation:
    t = 0.73
    th1, th2 = 0.83, -0.41

    def result(self):
        g = lat.teleport_graph(self.t)
        return red.reduce(g, {0: self.th1, 1: self.th2})

    def test_gate_matrix(self):
        thp, thm = self.th1 + self.th2, self.th1 - self.th2
        t = self.t
        expected = (1 / math.sin(thm)) * np.array([
            [(math.cos(thp) + math.cos(thm)) / t, math.sin(thp) / t],
            [-t * math.sin(thp), t * (math.cos(thp) - math.cos(thm))]])
        assert np.allclose(self.result().G, expected, atol=1e-12)
        assert np.allclose(self.result().G, gate_form(t, thp, thm), atol=1e-12)

    def test_noise_matrix(self):
        assert np.allclose(self.result().N,
                           [[-1 / self.t, 0], [0, 1]], atol=1e-14)

    def test_displacement_matrix(self):
        t, th1, th2 = self.t, self.th1, self.th2
        thm = th1 - th2
        expected = (math.sqrt(2) / math.sin(thm)) * np.array([
            [-math.cos(th2) / t, -math.cos(th1) / t],
            [t * math.sin(th2), t * math.sin(th1)]])
        assert np.allclose(self.result().D, expected, atol=1e-12)

    def test_identity_basis(self):
        g = lat.teleport_graph(self.t)
        basis = red.basis_from_sums(0, 1, 0.0, 2 * math.atan(1 / self.t))
        res = red.reduce(g, basis)
        assert np.allclose(res.G, np.eye(2), atol=1e-9)

    def test_degenerate_basis_raises(self):
        g = lat.teleport_graph(self.t)
        with pytest.raises(MeasurementDegenerateError):
            red.reduce(g, {0: 0.4, 1: 0.4})

    def test_missing_angle_raises(self):
        g = lat.teleport_graph(self.t)
        with pytest.raises(ValueError):
            red.reduce(g, {0: 0.4})


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
class TestPublishedNoiseMatrices:
    """The four displayed N matrices, exactly, at symbolic-t spot values."""

    def test_teleport(self, r):
        t = math.tanh(2 * r)
        res = red.reduce(lat.teleport_graph(t), {0: 0.3, 1: -0.9})
        assert np.allclose(res.N, [[-1 / t, 0], [0, 1]], atol=1e-12)

    def test_dbsl_appendix(self, r):
        params = lat.LatticeParams.from_r("DBSL", r)
        g = lat.single_step_graph(params, parity=0)
        res = red.reduce(g, g.full_basis([0.3, -0.9]))
        t = params.t
        expected = np.array([
            [-1 / (4 * t * t), 1 / (4 * t), 1 / (4 * t), -1 / (4 * t), 1 / (4 * t), 0],
            [0, t, t, t, -t, 1]])
        assert np.allclose(res.N, expected, atol=1e-12)

    def test_bsl(self, r):
        params = lat.LatticeParams.from_r("BSL", r)
        g = lat.single_step_graph(params, parity=0)
        res = red.reduce(g, g.full_basis([0.3, -0.9]))
        t = params.t
        expected = np.array([[1 / (2 * t * t), 1 / (2 * t), -1 / (2 * t), 0],
                             [0, -t, -t, 1]])
        assert np.allclose(res.N, expected, atol=1e-12)

    def test_mbsl_both_control_bases(self, r):
        params = lat.LatticeParams.from_r("MBSL", r)
        t = params.t
        g0 = lat.single_step_graph(params, theta_c=0.0)
        res0 = red.reduce(g0, g0.full_basis([0.3, -0.9]))
        assert np.allclose(res0.N, [[-1 / t, 0, 0, 0], [0, 0, 0, 1]], atol=1e-12)
        g2 = lat.single_step_graph(params, theta_c=math.pi / 2)
        res2 = red.reduce(g2, g2.full_basis([0.3, -0.9]))
        assert np.allclose(res2.N, [[-1 / (2 * t), -1 / (2 * t), 0, 0],
                                    [0, 0, -1, 1]], atol=1e-12)

    def test_qrl(self, r):
        params = lat.LatticeParams.from_r("QRL", r)
        g = lat.single_step_graph(params)
        a, b = 0.3, -0.9
        res = red.reduce(g, {0: a, 1: a, 2: b, 3: b})
        t = params.t
        assert np.allclose(res.N, np.diag([-1 / t, -1 / t, 1.0, 1.0]), atol=1e-12)


class TestGateForms:
    def test_dbsl_both_parities(self):
        r = 0.8
        params = lat.LatticeParams.from_r("DBSL", r)
        for parity, sgn in ((0, 1.0), (1, -1.0)):
            g = lat.single_step_graph(params, parity=parity)
            res = red.reduce(g, g.full_basis([0.37, 1.11]))
            assert np.allclose(res.G, gate_form(sgn * 4 * params.t ** 2, 1.48, -0.74),
                               atol=1e-10)

    def test_dbsl_variable_theta_c(self):
        r, tc = 0.8, 0.6
        params = lat.LatticeParams.from_r("DBSL", r)
        g = lat.single_step_graph(params, theta_c=tc)
        res = red.reduce(g, g.full_basis([0.37, 1.11]))
        t = params.t
        assert np.allclose(res.G, gate_form(4 * t * t * math.tan(tc), 1.48, -0.74),
                           atol=1e-10)
        tan = math.tan(tc)
        nf = red.noise_factors(res)
        th = math.tanh(2 * r)
        assert nf[0] == pytest.approx(1 / (th ** 4 * tan ** 2) + 1 / th ** 2, rel=1e-12)
        assert nf[1] == pytest.approx(th ** 2 * tan ** 2 + 1, rel=1e-12)

    def test_bsl_both_parities(self):
        params = lat.LatticeParams.from_r("BSL", 0.8)
        for parity, sgn in ((0, -1.0), (1, 1.0)):
            g = lat.single_step_graph(params, parity=parity)
            res = red.reduce(g, g.full_basis([0.37, 1.11]))
            assert np.allclose(res.G, gate_form(sgn * 2 * params.t ** 2, 1.48, -0.74),
                               atol=1e-10)

    def test_mbsl_gate_forms(self):
        params = lat.LatticeParams.from_r("MBSL", 0.8)
        g0 = lat.single_step_graph(params, theta_c=0.0)
        res = red.reduce(g0, g0.full_basis([0.37, 1.11]))
        assert np.allclose(res.G, gate_form(params.t, 1.48, -0.74), atol=1e-10)
        g2 = lat.single_step_graph(params, theta_c=math.pi / 2)
        res = red.reduce(g2, g2.full_basis([0.37, 1.11]))
        assert np.allclose(res.G, gate_form(2 * params.t, 1.48, -0.74), atol=1e-10)

    def test_qrl_double_gate(self):
        params = lat.LatticeParams.from_r("QRL", 0.8)
        g = lat.single_step_graph(params)
        a, b = 0.53, -0.91
        res = red.reduce(g, {0: a, 1: a, 2: b, 3: b})
        u = gate_form(params.t, a + b, a - b)
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 2], [0, 2])] = u
        expected[np.ix_([1, 3], [1, 3])] = u
        assert np.allclose(res.G, expected, atol=1e-10)


class TestNoiseFactors:
    def test_dbsl_closed_form(self):
        r = 1.1
        params = lat.LatticeParams.from_r("DBSL", r)
        g = lat.single_step_graph(params)
        nf = red.noise_factors(red.reduce(g, g.full_basis([0.2, 0.5])))
        th = math.tanh(2 * r)
        assert np.allclose(nf, [th ** -4 + th ** -2, th ** 2 + 1], rtol=1e-12)

    def test_infinite_squeezing_limit(self):
        params = lat.LatticeParams.from_r("DBSL", 9.0)
        g = lat.single_step_graph(params)
        nf = red.noise_factors(red.reduce(g, g.full_basis([0.2, 0.5])))
        assert np.allclose(nf, [2.0, 2.0], atol=1e-10)

    def test_qrl_per_mode(self):
        r = 0.9
        params = lat.LatticeParams.from_r("QRL", r)
        g = lat.single_step_graph(params)
        nf = red.noise_factors(red.reduce(g, {0: 0.1, 1: 0.1, 2: 0.7, 3: 0.7}))
        th = math.tanh(2 * r)
        assert np.allclose(nf, [th ** -2, th ** -2, 1.0, 1.0], rtol=1e-12)


class TestChain:
    def test_single_factor_identity_case(self):
        g = lat.teleport_graph(0.7)
        basis = red.basis_from_sums(0, 1, 0.0, 2 * math.atan(1 / 0.7))
        res = red.reduce(g, basis)
        chained = red.chain(res, red.reduce(g, {0: 0.3, 1: -0.8}))
        second = red.reduce(g, {0: 0.3, 1: -0.8})
        assert np.allclose(chained.G, second.G @ res.G, atol=1e-12)
        assert chained.N.shape == (2, 4)
        assert np.allclose(chained.N[:, :2], second.G @ res.N, atol=1e-12)
        assert np.allclose(chained.N[:, 2:], second.N, atol=1e-12)

    def test_two_teleport_fourier_steps_have_equal_variance(self):
        r = 1.0
        t = math.tanh(2 * r)
        g = lat.teleport_graph(t)
        b1 = red.basis_from_sums(0, 1, math.pi / 2, math.pi / 2)
        b2 = red.basis_from_sums(0, 1, 0.0, 2 * math.atan(t ** -2))
        chained = red.chain(red.reduce(g, b1), red.reduce(g, b2))
        assert np.allclose(chained.G, sp.rotation(math.pi / 2), atol=1e-10)
        nf = red.noise_factors(chained)
        nxnp = t ** -2 + 1 + t ** 2 + 1 - 1  # (Nx + Np) for the teleport wire
        assert nf[0] == pytest.approx(nf[1], rel=1e-12)
        assert nf[0] == pytest.approx(t ** -2 + 1, rel=1e-12)

    def test_dimension_mismatch(self):
        g1 = lat.teleport_graph(0.7)
        res1 = red.reduce(g1, {0: 0.3, 1: -0.8})
        params = lat.LatticeParams.from_r("QRL", 1.0)
        res2 = red.reduce(lat.single_step_graph(params), {0: 0.1, 1: 0.1, 2: 0.6, 3: 0.6})
        with pytest.raises(ValueError):
            red.chain(res1, res2)


class TestRestrictTensor:
    def test_restrict_reorders(self):
        params = lat.LatticeParams.from_r("QRL", 1.0)
        res = red.reduce(lat.single_step_graph(params), {0: 0.1, 1: 0.1, 2: 0.6, 3: 0.6})
        swapped = red.restrict(res, [1, 0], [1, 0])
        assert np.allclose(swapped.G[np.ix_([0, 2], [0, 2])],
                           res.G[np.ix_([1, 3], [1, 3])], atol=1e-14)


def assert_symplectic(g):
    """G Omega G^T = Omega to 1e-8 relative to |G|^2.

    Roundoff in G enters G Omega G^T multiplied by |G|, so a gate with entries
    of 1e3 misses an absolute 1e-8 by roundoff alone; gates with |G| <= 1 keep
    the absolute 1e-8.
    """
    scale = max(1.0, float(np.abs(g).max()) ** 2)
    assert sp.check_symplectic(g, 1e-8 * scale)


@given(th1=ANGLES, th2=ANGLES)
@settings(max_examples=50, deadline=None)
def test_reduced_gate_is_symplectic_dbsl(th1, th2):
    params = lat.LatticeParams.from_r("DBSL", 1.0)
    g = lat.single_step_graph(params)
    try:
        res = red.reduce(g, g.full_basis([th1, th2]))
    except MeasurementDegenerateError:
        return
    assert_symplectic(res.G)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_reduced_gate_is_symplectic_cz_regions(data):
    lattice = data.draw(st.sampled_from(["DBSL", "BSL", "MBSL", "QRL"]))
    params = lat.LatticeParams.from_r(lattice, 1.2)
    g = lat.cz_region_graph(params)
    angles = [data.draw(ANGLES) for _ in g.free_modes]
    try:
        res = red.reduce(g, g.full_basis(angles))
    except MeasurementDegenerateError:
        return
    if res.rcond < 1e-4:
        return  # near-degenerate elimination amplifies roundoff past the gate tol
    assert_symplectic(res.G)


def test_reduce_deterministic():
    params = lat.LatticeParams.from_r("BSL", 1.3)
    g = lat.single_step_graph(params)
    a = red.reduce(g, g.full_basis([0.2, 0.9]))
    b = red.reduce(g, g.full_basis([0.2, 0.9]))
    assert np.array_equal(a.G, b.G)
    assert np.array_equal(a.N, b.N)
    assert np.array_equal(a.D, b.D)


def test_dbsl_eq_cz_infinite_squeezing_limit():
    """The rotated-CZ construction converges to (R(pi/4) x R(pi/4)) CZ(1)."""
    q = math.pi / 4
    a = math.atan(0.5)
    free = [3 * q / 2, -q / 2, 3 * q / 2, -q / 2, -q, q - a, q + a, q + a, -q, q - a]
    target = sp.compose([sp.cz(1.0), sp.embed(sp.rotation(q), [0], 2),
                         sp.embed(sp.rotation(q), [1], 2)])
    prev = None
    for r in (2.0, 3.0, 6.0):
        params = lat.LatticeParams.from_r("DBSL", r)
        g = lat.cz_region_graph(params, parity=0)
        res = red.reduce(g, g.full_basis(free))
        dev = np.abs(res.G - target).sum()
        if prev is not None:
            assert dev < prev / 10
        prev = dev
    assert prev < 1e-8


@pytest.mark.parametrize("lattice", ["DBSL", "BSL", "MBSL", "QRL"])
@pytest.mark.parametrize("db", [0.25, 7.0, 25.0])
def test_premeasurement_symplectic_matches_dense_product(lattice, db):
    # the row-operation assembly equals the product of embedded 2n x 2n beam
    # splitters bit for bit, so every reduction is unchanged by it
    params = lat.LatticeParams.from_r(lattice, lat.db_to_r(db))
    graphs = [lat.single_step_graph(params, parity=0),
              lat.single_step_graph(params, parity=1),
              lat.cz_region_graph(params)]
    for graph in graphs:
        n = graph.n_modes
        dense = np.eye(2 * n)
        dense[n:, :n] = np.asarray(graph.adjacency, dtype=float)
        for i, j in graph.mixing_pairs:
            dense = sp.embed(sp.beamsplitter(), [i, j], n) @ dense
        assert np.array_equal(red.premeasurement_symplectic(graph), dense)


@pytest.mark.parametrize("tiny, degenerate", [(0.0, True), (1e-310, True), (1e-300, True),
                                              (1e-13, True), (1e-11, False), (1e-9, False)])
def test_eliminate_degeneracy_at_extreme_scales(tiny, degenerate):
    # U = diag(tiny, 1) has rcond = tiny; the norm bound overflows for the
    # smallest values and must hand them to the SVD without a warning
    u = np.diag([tiny, 1.0])
    meas = np.hstack([u, np.ones((2, 2))])
    out = np.ones((2, 4))
    m, u_inv, ok = red.eliminate(meas, out)
    assert ok == (not degenerate)
    if degenerate:
        assert not u_inv.any()
        assert np.array_equal(m, out[:, 2:])
    else:
        assert np.array_equal(u_inv, np.diag([1.0 / tiny, 1.0]))
        assert np.array_equal(m, out[:, 2:] - out[:, :2] @ np.linalg.solve(u, meas[:, 2:]))
