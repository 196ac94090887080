import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cvmbqc import gates, oracle
from cvmbqc import lattice as lat
from cvmbqc import symplectic as sp
from cvmbqc.errors import DegenerateConditioningError
from cvmbqc.reduction import noise_factors
from cvmbqc.reduction import reduce as reduce_region


def test_vacuum_through_beamsplitter_stays_vacuum():
    st = oracle.vacuum(2)
    out = oracle.evolve(st, sp.beamsplitter())
    assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-15)
    assert out.uncertainty_ok()


def test_evolve_identity():
    st = oracle.vacuum(3)
    out = oracle.evolve(st, np.eye(6))
    assert np.allclose(out.cov, st.cov)
    with pytest.raises(ValueError):
        oracle.evolve(st, np.eye(4))


def test_cluster_nullifier_variances_vanish():
    """p_i - t sum_j A_ij x_j variances shrink with squeezing on a CZ network."""
    for r, bound in ((1.0, 0.2), (3.0, 0.005)):
        eps = lat.effective_epsilon(r)
        n = 3
        cov = np.diag([0.5 / eps] * n + [0.5 * eps] * n)
        st = oracle.GaussianState(np.zeros(2 * n), cov)
        a = np.zeros((n, n))
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
        s_cz = np.eye(2 * n)
        s_cz[n:, :n] = a
        out = oracle.evolve(st, s_cz)
        for i in range(n):
            null_vec = np.zeros(2 * n)
            null_vec[n + i] = 1.0
            null_vec[:n] -= a[i]
            var = null_vec @ out.cov @ null_vec
            assert var < bound
        assert out.uncertainty_ok()


def test_conditioning_uncorrelated_mode_leaves_rest():
    st = oracle.vacuum(3)
    st.cov[0, 0] = 2.0
    out = oracle.condition_homodyne(st, 0, 0.3)
    assert out.n_modes == 2
    assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-14)


def test_conditioning_degenerate_variance_raises():
    st = oracle.vacuum(2)
    st.cov[0, 0] = 1e-16
    with pytest.raises(DegenerateConditioningError):
        oracle.condition_homodyne(st, 0, 0.0)


def test_conditioning_order_independence():
    rng = np.random.default_rng(3)
    params = lat.LatticeParams.from_r("DBSL", 1.0)
    graph = lat.single_step_graph(params)
    angles = graph.full_basis(rng.uniform(-1.2, 1.2, 2))

    n = graph.n_modes
    vx, vp = 0.5 / graph.epsilon, 0.5 * graph.epsilon
    cov = np.diag([0.5] + [vx] * 6 + [0.5] + [vp] * 6)
    base = oracle.GaussianState(np.zeros(2 * n), cov)
    s_cz = np.eye(2 * n)
    s_cz[n:, :n] = graph.adjacency
    base = oracle.evolve(base, s_cz)
    base = oracle.evolve(base, sp.embed(sp.beamsplitter(), [0, 1], n))

    covs = []
    for order in ([5, 4, 3, 2, 1, 0], [0, 1, 2, 3, 4, 5], [3, 0, 5, 1, 4, 2]):
        st = base
        remaining = list(range(n))
        for m in order:
            st = oracle.condition_homodyne(st, remaining.index(m),
                                           angles[graph.measured_modes.index(m)])
            remaining.remove(m)
        covs.append(st.cov)
    assert np.allclose(covs[0], covs[1], atol=1e-10)
    assert np.allclose(covs[0], covs[2], atol=1e-10)


def test_uncertainty_preserved_through_evolution_and_conditioning():
    st = oracle.vacuum(4)
    st = oracle.evolve(st, sp.embed(sp.squeeze(2.0), [1], 4))
    st = oracle.evolve(st, sp.embed(sp.cz(0.8), [0, 1], 4))
    assert st.uncertainty_ok()
    st = oracle.condition_homodyne(st, 1, 0.4)
    assert st.uncertainty_ok()


class TestVerifyPlan:
    @pytest.mark.parametrize("r", (0.25, 0.5, 1.0, 1.5, 2.0))
    def test_catalog_passes_at_gate_tolerance(self, r):
        for plan in gates.iter_catalog(r):
            rep = oracle.verify_plan(plan, tol=1e-9)
            assert rep["pass"], rep

    def test_teleport_identity_cross_check(self):
        plan = gates.basis_for("TELEPORT", "I", 1.0)
        rep = oracle.verify_plan(plan, tol=1e-9)
        assert rep["pass"]
        assert rep["max_cov_dev"] < 1e-12

    def test_dbsl_identity_variances_match_noise_factors(self):
        r = 1.0
        plan = gates.basis_for("DBSL", "I", r)
        rep = oracle.verify_plan(plan, tol=1e-9)
        assert rep["pass"]
        assert rep["max_var_dev"] < 1e-12

    def test_corrupted_plan_fails(self):
        plan = gates.basis_for("DBSL", "I", 1.0)
        track = plan.steps[0]
        bad_angles = track.angles.copy()
        bad_angles[0] += 0.1
        bad = gates.GatePlan(
            plan.lattice, plan.gate_id, plan.r,
            (gates.PlanTrack(track.graph, bad_angles),),
            plan.target)
        rep = oracle.verify_plan(bad, tol=1e-9)
        assert not rep["pass"]
        assert rep["target_resid"] > 1e-3


class TestWignerGrid:
    @pytest.mark.parametrize("lattice", ("DBSL", "BSL", "MBSL"))
    @pytest.mark.parametrize("r", (0.5, 1.5))
    def test_moments_match_conditional_oracle(self, lattice, r):
        rep = oracle.wigner_limit_check(lattice, r)
        assert rep["pass"], rep
        assert rep["max_rel_dev"] < 1e-4

    @pytest.mark.parametrize("lattice", ("DBSL", "BSL", "MBSL"))
    def test_zero_edge_weight_limit(self, lattice):
        rep = oracle.wigner_limit_check(lattice, 1.0, t_override=0.0)
        eps = lat.effective_epsilon(1.0)
        grid = np.array(rep["grid_moments"])
        assert grid[0, 0] == pytest.approx(0.5 / eps, rel=1e-4)
        assert grid[1, 1] == pytest.approx(0.5 * eps, rel=1e-4)
        assert rep["pass"]

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            oracle.wigner_limit_check("DBSL", 1.0, npts=100)

    def test_unsupported_lattice(self):
        with pytest.raises(ValueError):
            oracle.wigner_limit_check("QRL", 1.0)

    def test_post_selprobed_state_keeps_envelopes(self):
        """Post-selected conditioning differs from the feed-forward channel by
        the finite anti-squeezing envelopes; both are exact, neither is noise."""
        r = 1.0
        plan = gates.basis_for("DBSL", "I", r)
        graph = plan.steps[0].graph
        angles = plan.steps[0].angles
        cond = oracle.simulate_region(graph, angles)
        res = reduce_region(graph, angles)
        ff_var = 0.5 + 0.5 * graph.epsilon * noise_factors(res)
        assert cond.cov[0, 0] < ff_var[0]
        assert cond.cov[1, 1] < ff_var[1]


@pytest.mark.parametrize("n", [8, 9])
def test_fft_convolution_matches_direct_same_mode(n):
    rng = np.random.default_rng(n)
    w = rng.normal(size=(n, n))
    kern = rng.normal(size=n)
    for axis in (0, 1):
        direct = np.apply_along_axis(np.convolve, axis, w, kern, mode="same")
        assert np.allclose(oracle._convolve_same(w, kern, axis), direct,
                           rtol=0, atol=1e-12)


def test_oracle_import_leaves_scipy_unloaded():
    code = "import sys, cvmbqc.oracle; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oracle.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
