import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmbqc import gates, gkp
from cvmbqc import lattice as lat
from cvmbqc import symplectic as sp

SQRT_PI = math.sqrt(math.pi)


class TestPropagateSpikes:
    def test_identity_and_fourier(self):
        d = 0.07
        assert np.allclose(gkp.propagate_spikes(np.eye(2), [0, 0], d), [d, d])
        assert np.allclose(gkp.propagate_spikes(sp.rotation(math.pi / 2), [0, 0], d),
                           [d, d])

    def test_shear(self):
        d = 0.07
        assert np.allclose(gkp.propagate_spikes(sp.shear(1.0), [0, 0], d), [d, 2 * d])

    def test_cz(self):
        d = 0.07
        assert np.allclose(gkp.propagate_spikes(sp.cz(1.0), [0] * 4, d),
                           [d, d, 2 * d, 2 * d])

    def test_sigma_added(self):
        out = gkp.propagate_spikes(np.eye(2), [0.1, 0.2], 0.05)
        assert np.allclose(out, [0.15, 0.25])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gkp.propagate_spikes(np.eye(4), [0.0, 0.0], 0.1)


class TestErrorProbability:
    def test_limits(self):
        assert gkp.error_probability([1e-12, 1e-12], 1e-12) < 1e-12
        assert gkp.error_probability([1e4, 1e4], 1.0) > 0.999

    def test_single_quadrature_value(self):
        # independent oracle: complementary error function via quadrature
        from scipy.integrate import quad
        v = 0.05
        sigma = math.sqrt(v)
        inside, _ = quad(lambda x: math.exp(-x * x / (2 * sigma * sigma)),
                         -SQRT_PI / 2, SQRT_PI / 2)
        inside /= math.sqrt(2 * math.pi) * sigma
        expected = 1 - inside
        got = gkp.error_probability([v - 0.01], 0.01)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(1 - math.erf(SQRT_PI / (2 * math.sqrt(2 * v))),
                                    rel=1e-12)

    def test_deep_tail_keeps_its_digits(self):
        # far in the tail 1 - erf(a) rounds to 0 while erfc(a) keeps every digit
        v = 0.01
        a = SQRT_PI / (2 * math.sqrt(2 * v))
        assert math.erfc(a) < 1e-17
        got = gkp.error_probability([v / 2], v / 2)
        assert got == pytest.approx(math.erfc(a), rel=1e-12, abs=0.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gkp.error_probability([-0.2], 0.1)

    def test_stack_gives_each_point_its_own_value(self):
        rng = np.random.default_rng(0)
        spikes = 10.0 ** rng.uniform(-4, 1, (3, 5, 4))
        deltas = 10.0 ** rng.uniform(-4, 0, (3, 5))
        stacked = gkp.error_probability(spikes, deltas)
        assert stacked.shape == (3, 5)
        for i in np.ndindex(3, 5):
            assert stacked[i] == gkp.error_probability(spikes[i], float(deltas[i]))
        one_delta = gkp.error_probability(spikes, 0.01)
        assert one_delta[1, 2] == gkp.error_probability(spikes[1, 2], 0.01)
        with pytest.raises(ValueError):  # one bad point of a stack
            gkp.error_probability([[0.1, 0.2], [0.3, -0.2]], 0.1)

    @given(st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=4),
           st.floats(1e-4, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_permutation_symmetry_and_bounds(self, dps, delta):
        p = gkp.error_probability(dps, delta)
        assert 0.0 <= p <= 1.0
        assert gkp.error_probability(list(reversed(dps)), delta) == pytest.approx(p)

    @given(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(1e-3, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_argument(self, a, b, delta):
        p0 = gkp.error_probability([a, b], delta)
        assert gkp.error_probability([a + 0.1, b], delta) > p0
        assert gkp.error_probability([a, b + 0.1], delta) > p0
        assert gkp.error_probability([a, b], delta + 0.1) > p0


class TestGateErrorProbability:
    def test_vanishing_squeezing_limit(self):
        r = lat.db_to_r(0.02)
        for lattice in ("DBSL", "BSL", "MBSL", "QRL"):
            for gate in ("I", "F", "P1"):
                p = gkp.gate_error_probability(gates.basis_for(lattice, gate, r))
                assert p > 0.99
        assert gkp.gate_error_probability(gates.qrl_cz_plan(r)) > 0.99

    def test_high_squeezing_limit(self):
        r = lat.db_to_r(30.0)
        assert gkp.gate_error_probability(gates.basis_for("QRL", "I", r)) < 1e-10

    def test_ordering_on_dbsl(self):
        r = lat.db_to_r(15.0)
        p = {g: gkp.gate_error_probability(gates.basis_for("DBSL", g, r))
             for g in ("I", "F", "P1")}
        assert p["I"] < p["F"] < 1.0
        assert p["I"] < p["P1"]

    def test_monotone_in_squeezing(self):
        dbs = np.arange(0.25, 25.01, 0.25)
        prev = None
        for db in dbs:
            p = gkp.gate_error_probability(gates.basis_for("QRL", "I", lat.db_to_r(db)))
            if prev is not None:
                assert p <= prev + 1e-15
            prev = p

    def test_ffcz_needs_four_corrections(self):
        r = lat.db_to_r(12.0)
        p_cz = gkp.gate_error_probability(gates.qrl_cz_plan(r))
        for g in ("I", "F", "P1"):
            assert p_cz >= gkp.gate_error_probability(gates.basis_for("QRL", g, r))
