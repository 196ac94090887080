import math

import numpy as np
import pytest

from cvmbqc import gates
from cvmbqc import lattice as lat
from cvmbqc import symplectic as sp
from cvmbqc.errors import CacheMissError
from cvmbqc.reduction import noise_factors, reduce

ALL_LATTICES = ("TELEPORT", "DBSL", "BSL", "MBSL", "QRL")
DB_GRID = (0.5, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0)


def test_target_symplectic_ffcz_is_hand_product():
    f = sp.rotation(math.pi / 2)
    expected = sp.embed(f, [0], 2) @ sp.embed(f, [1], 2) @ sp.cz(1.0)
    assert np.allclose(gates.target_symplectic("FFCZ", (1, 1)), expected, atol=1e-15)
    by_hand = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert np.allclose(expected, by_hand, atol=1e-15)


def test_target_symplectic_identity_and_swap():
    assert np.allclose(gates.target_symplectic("I"), np.eye(2))
    x = gates.target_symplectic("SWAP")
    assert np.allclose(x @ x, np.eye(4), atol=1e-15)
    assert sp.check_symplectic(x, 1e-12)


def test_target_symplectic_rejects_unknown():
    with pytest.raises(ValueError):
        gates.target_symplectic("CPHASE")


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("gate_id", ("I", "F", "P1"))
def test_single_mode_closed_forms_across_squeezing(lattice, gate_id):
    worst = 0.0
    for db in DB_GRID:
        r = lat.db_to_r(db)
        plan = gates.basis_for(lattice, gate_id, r)
        res = gates.realize(plan)
        worst = max(worst, float(np.abs(res.G - plan.target).sum()))
    assert worst < 1e-8


@pytest.mark.parametrize("lattice", ("DBSL", "BSL"))
@pytest.mark.parametrize("gate_id", ("I", "F", "P1"))
def test_single_mode_closed_forms_odd_parity(lattice, gate_id):
    r = lat.db_to_r(7.0)
    plan = gates.basis_for(lattice, gate_id, r, parity=1)
    res = gates.realize(plan)
    assert np.abs(res.G - plan.target).sum() < 1e-9


def test_basis_for_validates():
    with pytest.raises(ValueError):
        gates.basis_for("DBSL", "FFCZ", 1.0)
    with pytest.raises(ValueError):
        gates.basis_for("DBSL", "I", 0.0)


class TestNoiseBook:
    """Closed-form quadrature noise factors of the catalog."""

    @pytest.mark.parametrize("lattice", ("DBSL", "BSL"))
    def test_identity_factors_match_dbsl_form(self, lattice):
        for db in DB_GRID:
            r = lat.db_to_r(db)
            th = math.tanh(2 * r)
            nf = noise_factors(gates.realize(gates.basis_for(lattice, "I", r)))
            assert nf[0] == pytest.approx(th ** -4 + th ** -2, rel=1e-10)
            assert nf[1] == pytest.approx(th ** 2 + 1, rel=1e-10)

    def test_identity_factors_qrl_mbsl(self):
        for db in DB_GRID:
            r = lat.db_to_r(db)
            th = math.tanh(2 * r)
            nf = noise_factors(gates.realize(gates.basis_for("QRL", "I", r)))
            assert np.allclose(nf, [th ** -2, 1.0], rtol=1e-10)
            nf = noise_factors(gates.realize(gates.basis_for("MBSL", "I", r)))
            assert np.allclose(nf, [th ** -2, 2.0], rtol=1e-10)

    @pytest.mark.parametrize("lattice", ("TELEPORT", "DBSL", "BSL", "MBSL", "QRL"))
    def test_p1_doubles_single_step_factors(self, lattice):
        r = lat.db_to_r(9.0)
        nf_p = noise_factors(gates.realize(gates.basis_for(lattice, "P1", r)))
        nf_i = noise_factors(gates.realize(gates.basis_for(lattice, "I", r)))
        assert np.allclose(nf_p, 2 * nf_i, rtol=1e-10)

    @pytest.mark.parametrize("lattice", ("DBSL", "BSL", "MBSL", "QRL"))
    def test_fourier_equal_variances(self, lattice):
        for db in (1.0, 8.0, 20.0):
            r = lat.db_to_r(db)
            nf = noise_factors(gates.realize(gates.basis_for(lattice, "F", r)))
            assert nf[0] == pytest.approx(nf[1], rel=1e-12)

    def test_fourier_sum_rule_qrl(self):
        r = lat.db_to_r(11.0)
        th = math.tanh(2 * r)
        nf = noise_factors(gates.realize(gates.basis_for("QRL", "F", r)))
        assert nf[0] == pytest.approx(th ** -2 + 1.0, rel=1e-10)


class TestQrlCzPlan:
    def test_exact_target_across_squeezing(self):
        for db in (0.5, 5.0, 15.0, 25.0):
            plan = gates.qrl_cz_plan(lat.db_to_r(db))
            res = gates.realize(plan)
            assert np.abs(res.G - plan.target).sum() < 1e-5

    def test_target_is_fourier_pair_cz(self):
        plan = gates.qrl_cz_plan(1.0)
        n, m = gates.FFCZ_EXPONENTS["QRL"]
        assert abs(n) == 1 and abs(m) == 1
        assert np.allclose(plan.target, gates.target_symplectic("FFCZ", (n, m)))

    def test_all_four_variances_equal_fourier_gate(self):
        r = lat.db_to_r(13.0)
        nf = noise_factors(gates.realize(gates.qrl_cz_plan(r)))
        nf_f = noise_factors(gates.realize(gates.basis_for("QRL", "F", r)))
        assert np.allclose(nf, [nf_f[0]] * 4, rtol=1e-10)

    def test_infinite_squeezing_limit(self):
        plan = gates.qrl_cz_plan(8.0)
        res = gates.realize(plan)
        assert np.abs(res.G - plan.target).sum() < 1e-12


class TestSwapPlan:
    def test_angles_squeezing_independent(self):
        p1 = gates.dbsl_swap_plan(0.5)
        p2 = gates.dbsl_swap_plan(2.5)
        a1 = [p1.steps[0].angles[m] for m in p1.steps[0].graph.free_modes]
        a2 = [p2.steps[0].angles[m] for m in p2.steps[0].graph.free_modes]
        assert a1 == a2

    @pytest.mark.parametrize("r", (1.0, 1.5, 2.5))
    def test_swap_with_fourier_byproduct(self, r):
        plan = gates.dbsl_swap_plan(r)
        res = gates.realize(plan)
        assert np.abs(res.G - plan.target).sum() < 1e-6
        f = sp.rotation(math.pi / 2)
        ff = sp.embed(f, [0], 2) @ sp.embed(f, [1], 2)
        assert np.allclose(plan.target, ff @ gates.target_symplectic("SWAP"), atol=1e-15)

    @pytest.mark.parametrize("r", (0.75, 1.0, 2.0))
    def test_swap_noise_factors(self, r):
        th = math.tanh(2 * r)
        nf = noise_factors(gates.realize(gates.dbsl_swap_plan(r)))
        nx = th ** -4 + 3 * th ** -2
        npp = th ** 2 + 3
        assert np.allclose(nf, [nx, nx, npp, npp], rtol=1e-10)

    def test_swap_infinite_squeezing_factors(self):
        nf = noise_factors(gates.realize(gates.dbsl_swap_plan(8.0)))
        assert np.allclose(nf, [4.0, 4.0, 4.0, 4.0], atol=1e-8)


class TestCzCache:
    def _table(self):
        a = math.atan(0.5)
        q = math.pi / 4
        # the rotated-CZ construction is exact at high squeezing; use it as a
        # stand-in row to exercise the cache plumbing without the optimizer
        return {"version": 1, "entries": [
            {"lattice": "DBSL", "squeezing_db": 60.0, "angles":
             [3 * q / 2, -q / 2, 3 * q / 2, -q / 2, -q, q - a, q + a, q + a, -q, q - a],
             "residual": 0.0, "perr": 0.5, "accepted": True},
            {"lattice": "DBSL", "squeezing_db": 3.0, "angles": [0.0] * 10,
             "residual": 1.0, "perr": 1.0, "accepted": False},
        ]}

    def test_lookup_and_plan(self):
        plan = gates.cz_plan("DBSL", 60.0, table=self._table())
        res = gates.realize(plan)
        rr = sp.embed(sp.rotation(math.pi / 4), [0], 2) \
            @ sp.embed(sp.rotation(math.pi / 4), [1], 2)
        assert np.abs(res.G - rr @ sp.cz(1.0)).sum() < 1e-10

    def test_missing_entry_raises(self):
        with pytest.raises(CacheMissError):
            gates.cz_plan("DBSL", 12.25, table=self._table())

    def test_infeasible_entry_is_a_miss(self):
        with pytest.raises(CacheMissError):
            gates.cz_plan("DBSL", 3.0, table=self._table())

    def test_miss_names_the_command_that_fills_it(self):
        with pytest.raises(CacheMissError, match=r"optimize --lattice DBSL --db-min 12 "):
            gates.cz_plan("DBSL", 12.0, table=self._table())
        with pytest.raises(CacheMissError, match=r"optimize --lattice DBSL "
                           r"--variable-theta-c --db-min 12 --db-max 12`"):
            gates.cz_plan("DBSL", 12.0, table=self._table(), variable_theta_c=True)

    def test_qrl_cz_plan_needs_no_cache(self):
        plan = gates.cz_plan("QRL", 14.0, table={"version": 1, "entries": []})
        assert plan.gate_id == "FFCZ"


def test_iter_catalog_contents():
    plans = list(gates.iter_catalog(1.0))
    kinds = {(p.lattice, p.gate_id) for p in plans}
    assert ("DBSL", "I") in kinds and ("QRL", "FFCZ") in kinds and ("DBSL", "SWAP") in kinds
    assert len(plans) == 14


def test_multi_step_plans_keep_the_smallest_rcond():
    r = lat.db_to_r(15.0)
    for plan in (gates.basis_for("QRL", "F", r), gates.basis_for("DBSL", "F", r)):
        parts = [reduce(track.graph, track.angles).rcond for track in plan.steps]
        assert len(parts) > 1
        assert gates.realize(plan).rcond == min(parts)
