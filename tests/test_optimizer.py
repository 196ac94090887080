import contextlib
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cvmbqc import _kernels, gates, gkp
from cvmbqc import lattice as lat
from cvmbqc import optimizer as opt
from cvmbqc import reduction as red
from cvmbqc.errors import MeasurementDegenerateError
from cvmbqc.reduction import reduce as reduce_region

from conftest import theta_c_optima

FAST = opt.OptimizerConfig(restarts=10, seed=2, weight_grid=(1e-8, 1e-3))


def test_config_validation():
    with pytest.raises(ValueError):
        opt.OptimizerConfig(weight_grid=())
    with pytest.raises(ValueError):
        opt.OptimizerConfig(weight_grid=(0.0, 1.0))
    cfg = opt.OptimizerConfig.from_dict({"restarts": 7, "weight_grid": [1e-4, 1.0]})
    assert cfg.restarts == 7
    assert cfg.weight_grid == (1e-4, 1.0)
    assert opt.RESIDUAL_TOL == 1e-5
    assert [f.name for f in fields(opt.OptimizerConfig)] == ["weight_grid", "restarts", "seed"]
    with pytest.raises(ValueError, match="restarts"):
        opt.OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="unknown optimizer config keys: rounds_, weight_grd"):
        opt.OptimizerConfig.from_dict({"weight_grd": [1e-4], "rounds_": 2, "seed": 1})


def test_restarts_are_bounded():
    # search() builds every start before it solves one, so an unbounded
    # restarts would try to hold that many start vectors
    assert opt.OptimizerConfig(restarts=opt.MAX_RESTARTS).restarts == 10 ** 6
    for restarts in (opt.MAX_RESTARTS + 1, 10 ** 12):
        with pytest.raises(ValueError, match="restarts must be at least 1 and at most 1000000"):
            opt.OptimizerConfig.from_dict({"restarts": restarts})


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _theta_c_last_map(graph):
    """The graph's angle map with its control basis theta_c as one more free
    angle, the last, set on each control mode at its sign.  No search frees
    theta_c; the kernel cases below use this map, the one here that sets
    several measured modes from one free angle."""
    pos = {m: i for i, m in enumerate(graph.measured_modes)}
    column = np.zeros((len(pos), 1))
    for m, sign in graph.control_modes:
        column[pos[m]] = sign
    return np.zeros(len(pos)), np.hstack([graph.angle_map()[1], column])


@pytest.mark.parametrize("theta_c", [0.3, math.pi / 4, 0.833, 2.0])
def test_theta_c_as_last_free_angle_equals_the_graph_built_at_theta_c(theta_c):
    # every CZ region and single-step region, at both parities, bit for bit:
    # theta_c as the last free angle sets the basis that the graph built at
    # theta_c does; a graph stacked over r and theta_c gives each point's
    # one-point basis; every measured mode has exactly one free angle or a
    # preset one; and the search kernel's map is the graph's
    rng = np.random.default_rng(29)
    r, thetas = np.array([1.1, 0.3, 2.0]), np.array([theta_c, 0.3, 2.0])
    for lattice, parity in itertools.product(lat.LATTICES, (0, 1)):
        builds = [lat.single_step_graph] + [lat.cz_region_graph] * (lattice != "TELEPORT")
        for build in builds:
            stacked = build(lat.LatticeParams.from_r(lattice, r), parity, thetas)
            free = rng.uniform(-math.pi, math.pi, (len(stacked.free_modes), len(r)))
            basis = stacked.full_basis(free)
            for i in range(len(r)):
                graph = build(lat.LatticeParams.from_r(lattice, r[i]), parity, thetas[i])
                assert _same_bits(basis[i], graph.full_basis(free[:, i]))
                base, a_map = graph.angle_map()
                assert (np.count_nonzero(a_map, axis=1) + (base != 0) == 1).all()
            base, a_map = _theta_c_last_map(build(lat.LatticeParams.from_r(lattice, r[0]), parity))
            x = np.append(free[:, 0], theta_c)
            graph = build(lat.LatticeParams.from_r(lattice, r[0]), parity, theta_c)
            assert _same_bits(base + (a_map @ x[:, None])[:, 0], graph.full_basis(free[:, 0]))
            target = np.zeros((2 * len(graph.output_modes), 2 * len(graph.input_modes)))
            frozen, (base, a_map) = opt.freeze_region(graph, target, 1.1), graph.angle_map()
            assert _same_bits(frozen.theta_base, base) and _same_bits(frozen.a_map, a_map)
    # and the closed-form DBSL plan stacked over (r, theta_c) is each point's
    plan = gates.dbsl_cz_plan(r, thetas)
    for i in range(len(r)):
        alone = gates.dbsl_cz_plan(r[i], thetas[i])
        assert _same_bits(plan.steps[0].angles[i], alone.steps[0].angles)
        assert _same_bits(plan.steps[0].graph.adjacency[i], alone.steps[0].graph.adjacency)
        assert _same_bits(gkp.gate_error_probability(plan)[i], gkp.gate_error_probability(alone))


def test_metrics_value_and_degeneracy():
    r = 1.0
    graph = lat.teleport_graph(math.tanh(2 * r))
    tm = 2 * math.atan(1 / math.tanh(2 * r))
    exact = np.array([tm / 2, -tm / 2])
    frozen = opt.freeze_region(graph, np.eye(2), r)
    resid, perr = frozen.metrics(exact)
    assert resid < 1e-12
    f, _, jet_perr, _ = frozen.jet(exact)
    assert (np.abs(f).sum(), jet_perr) == (resid, perr)
    # perturbing one angle raises the residual above zero
    assert frozen.metrics(np.array([exact[0] + 1e-3, exact[1]]))[0] > 1e-6
    # degenerate basis (theta1 = theta2) is infeasible, not an exception
    assert frozen.metrics(np.array([0.3, 0.3]))[0] == _kernels.BAD_VALUE
    assert frozen.jet(np.array([0.3, 0.3])) is None


def _central_differences(frozen, x, h):
    """Central differences of F and log perr, one column per free angle."""
    cols = []
    for e in h * np.eye(frozen.n_free):
        up, down = frozen.jet(x + e), frozen.jet(x - e)
        cols.append(np.append(up[0] - down[0], math.log(up[2]) - math.log(down[2])) / (2 * h))
    return np.array(cols).T


def _region(lattice, r, theta_c_free=False):
    """The search's frozen CZ region; with ``theta_c_free`` its angle map is
    :func:`_theta_c_last_map`'s."""
    frozen = opt._region(lattice, r)
    if not theta_c_free:
        return frozen
    theta_base, a_map = _theta_c_last_map(frozen.graph)
    return dataclasses.replace(frozen, theta_base=theta_base, a_map=a_map)


@pytest.mark.parametrize("lattice, theta_c_free", [
    ("DBSL", False), ("BSL", False), ("MBSL", False), ("DBSL", True)])
def test_jet_matches_central_differences(lattice, theta_c_free):
    # near a root, where the solves and the descent use the derivatives
    frozen = _region(lattice, lat.db_to_r(15.0), theta_c_free)
    rng = np.random.default_rng(1)
    x, _, f, *_ = opt._lm_stack(frozen, rng.uniform(-math.pi, math.pi, (1, frozen.n_free)))
    assert np.abs(f[0]).sum() < opt.ROOT_TOL
    x = x[0] + rng.normal(0.0, 0.05, frozen.n_free)
    _, jac, _, grad = frozen.jet(x)
    h = 1e-3  # Richardson extrapolation of two central differences: O(h^4)
    fd = (4 * _central_differences(frozen, x, h / 2) - _central_differences(frozen, x, h)) / 3
    assert np.abs(jac - fd[:-1]).max() <= 1e-7 * np.abs(jac).max()
    assert np.abs(grad - fd[-1]).max() <= 1e-7 * np.abs(grad).max()


def test_lm_root_agrees_with_scipy_least_squares():
    from scipy.optimize import least_squares

    frozen = opt._region("DBSL", lat.db_to_r(15.0))
    # from this start both solvers reach the same one of the two DBSL roots mod pi
    x0 = np.random.default_rng(0).uniform(-math.pi, math.pi, frozen.n_free)
    x, _, f, *_ = opt._lm_stack(frozen, x0[None])
    ref = least_squares(lambda y: frozen.jet(y)[0], x0, jac=lambda y: frozen.jet(y)[1],
                        method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert np.abs(f[0]).sum() < opt.ROOT_TOL
    assert frozen.metrics(ref.x)[0] < opt.ROOT_TOL
    assert frozen.metrics(x[0])[1] == pytest.approx(frozen.metrics(ref.x)[1], rel=1e-9)
    np.testing.assert_allclose(frozen.canonical(x[0]), frozen.canonical(ref.x), rtol=0, atol=1e-9)


def test_angles_are_canonical_mod_pi():
    r = lat.db_to_r(15.0)
    res = opt.cz_search("DBSL", r, opt.OptimizerConfig(restarts=4, seed=3))
    assert res.accepted
    frozen = opt._region("DBSL", r)
    x = res.angles
    assert np.all((-math.pi / 2 <= x) & (x < math.pi / 2))
    assert np.array_equal(frozen.canonical(x), x)
    for e in math.pi * np.eye(frozen.n_free):
        for shifted in (x + e, x - e):
            # the shift by pi rounds once, so the angle comes back to an ulp
            np.testing.assert_allclose(frozen.canonical(shifted), x, rtol=0, atol=1e-15)
            assert frozen.metrics(shifted)[1] == pytest.approx(res.perr, rel=2e-15, abs=0)


def test_kernel_matches_reference_reduction():
    r = 1.1
    params = lat.LatticeParams.from_r("DBSL", r)
    graph = lat.cz_region_graph(params)
    target = gates.target_symplectic("FFCZ", (1, 1))
    frozen = opt.freeze_region(graph, target, r)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-math.pi, math.pi, 10)
        resid, perr = frozen.metrics(x)
        ref_resid, ref_perr = opt.evaluate_free_angles("DBSL", r, x)
        assert resid == pytest.approx(ref_resid, abs=1e-10)
        assert perr == pytest.approx(ref_perr, abs=1e-12)


@pytest.mark.parametrize("lattice", ["DBSL", "BSL", "MBSL"])
def test_reference_evaluation_reduces_once(monkeypatch, lattice):
    # the crosscheck scores perr from its one reduction, bit for bit what the
    # plan's own gate_error_probability gives
    row = next(r for r in gates.load_basis_table()["entries"] if r["lattice"] == lattice)
    r = lat.db_to_r(row["squeezing_db"])
    plan = gates.cz_region_plan(lattice, r, row["angles"])
    expected = (float(np.abs(gates.realize(plan).G - plan.target).sum()),
                gkp.gate_error_probability(plan))
    calls = []
    monkeypatch.setattr(gates, "reduce", lambda *a: calls.append(a) or reduce_region(*a))
    assert opt.evaluate_free_angles(lattice, r, row["angles"]) == expected
    assert len(calls) == 1


def test_search_teleport_identity_recovers_closed_form():
    r = 1.0
    t = math.tanh(2 * r)
    graph = lat.teleport_graph(t)
    frozen = opt.freeze_region(graph, np.eye(2), r)
    res = opt.search(frozen, opt.OptimizerConfig(restarts=16, seed=4,
                                                 weight_grid=(1e-8, 1e-2)))
    assert res.accepted
    assert res.residual < 1e-5
    # closed-form error probability at the identity setting
    tm = 2 * math.atan(1 / t)
    exact = [tm / 2, -tm / 2]
    _, perr_exact = frozen.metrics(exact)
    assert res.perr == pytest.approx(perr_exact, abs=1e-9)
    thp = res.angles[0] + res.angles[1]
    assert math.sin(thp) == pytest.approx(0.0, abs=1e-5)


def test_qrl_search_is_refused_before_any_solve(monkeypatch):
    # the QRL CZ plan is closed-form; its region's dummy inputs and outputs
    # do not fit the target, so no start is solved
    monkeypatch.setattr(opt, "_solve_all", lambda *args: pytest.fail("a QRL start was solved"))
    with pytest.raises(ValueError, match=r"target shape \(4, 4\) does not match 8 output"):
        opt.cz_search("QRL", lat.db_to_r(10.0), opt.OptimizerConfig(restarts=6, seed=1))


@pytest.mark.parametrize("lattice", ["DBSL"])
def test_search_starts_only_from_what_its_caller_gives(lattice):
    # no start is built in: one restart and no warm start is one solve
    res = opt.cz_search(lattice, lat.db_to_r(15.0), opt.OptimizerConfig(restarts=1, seed=1))
    assert res.descents == 1


def test_every_warm_start_holds_the_regions_free_angles():
    # theta_c is not free, so a start that appends it is refused
    with pytest.raises(ValueError, match="10 free angles"):
        opt.cz_search("DBSL", lat.db_to_r(15.0), FAST, warm_starts=[np.zeros(11)])


def test_dbsl_search_accepts_at_15db():
    r = lat.db_to_r(15.0)
    res = opt.cz_search("DBSL", r, opt.OptimizerConfig(restarts=16, seed=3,
                                                       weight_grid=(1e-8, 1e-4)))
    assert res.accepted
    assert res.residual < 1e-5
    # optimization cannot do worse than the unoptimized rotated-CZ construction
    q, a = math.pi / 4, math.atan(0.5)
    eq_cz = [3 * q / 2, -q / 2, 3 * q / 2, -q / 2, -q, q - a, q + a, q + a, -q, q - a]
    _, perr_raw = opt.evaluate_free_angles("DBSL", r, eq_cz)
    assert res.perr <= perr_raw


def test_monotone_in_restarts():
    """More restarts never increase the best accepted error probability."""
    r = lat.db_to_r(12.0)
    frozen = opt._region("MBSL", r)
    perrs = []
    for n in (6, 12):
        cfg = opt.OptimizerConfig(restarts=n, seed=9, weight_grid=(1e-8,))
        res = opt.search(frozen, cfg)
        perrs.append(res.perr if res.accepted else math.inf)
    assert perrs[1] <= perrs[0] + 1e-15


def test_search_determinism():
    r = lat.db_to_r(9.0)
    frozen = opt._region("MBSL", r)
    cfg = opt.OptimizerConfig(restarts=6, seed=5, weight_grid=(1e-8,))
    a = opt.search(frozen, cfg)
    b = opt.search(frozen, cfg)
    assert np.array_equal(a.angles, b.angles)
    assert a.perr == b.perr


def test_cold_mbsl_search_reaches_the_optimum():
    cfg = opt.OptimizerConfig(restarts=8, weight_grid=(1e-4,), seed=20200527)
    res = opt.cz_search("MBSL", lat.db_to_r(15.0), cfg)
    assert res.accepted
    assert res.perr == pytest.approx(0.11767573281586881, rel=1e-12)
    # 402 with the exact reduced Hessian; 559 with a differenced one, 739
    # with lstsq retraction steps, 4,502 with steepest descent
    assert res.evals <= 420


def test_winners_are_bit_identical_to_per_candidate_scoring():
    # literals that scoring each candidate with its own one-point jet gives
    # (retaken, and checked that way, when the descent's reduced Hessian
    # became the exact one, and when the elimination came to form U^-1 by
    # one inverse; each moved the MBSL winner by rounding; the teleport ones
    # when each warm start came to be solved once); the stacked scoring pass
    # must not move a bit
    res = opt.cz_search("MBSL", lat.db_to_r(15.0), opt.OptimizerConfig(restarts=8, seed=20200527))
    assert res.angles.tolist() == [
        -0.7853981633974483, 0.7853981633974483, -1.5707963267948966, 3.354462025160308e-17,
        0.6164228318068111, -0.6164228318068115, -3.1439755123494453e-16, -1.5707963267948961,
        0.4652495283334749, -0.465249528333475, -1.5707963267948957, -1.5707963267948957]
    assert (res.perr, res.residual, res.accepted) == (0.11767573281586778, 2.8760593161593137e-15,
                                                      True)
    assert (res.evals, res.roots, res.descents) == (402, 8, 8)
    # a degenerate exact warm start is a candidate that scores BAD_VALUE
    r = 1.0
    frozen = opt.freeze_region(lat.teleport_graph(math.tanh(2 * r)), np.eye(2), r)
    res = opt.search(frozen, opt.OptimizerConfig(restarts=6, seed=3),
                     warm_starts=[np.array([0.3, 0.3])])
    assert res.angles.tolist() == [0.8037117546275299, -0.8037117546275301]
    assert (res.perr, res.residual, res.accepted) == (0.17195552770533246, 1.03811073538742e-15,
                                                      True)
    assert (res.evals, res.roots, res.descents) == (37, 5, 6)
    # each warm start is solved once, and uniform starts fill up to restarts
    warm = [np.array(w) for w in ([0.3, 0.3], [0.1, -0.2], [0.7, 0.4], [-1.0, 0.5])]
    res = opt.search(frozen, opt.OptimizerConfig(restarts=6, seed=3), warm_starts=warm)
    assert res.descents == 6


def test_no_cold_mbsl_retraction_uses_up_its_steps(monkeypatch):
    # 19 of 241 did with lstsq's epsilon cutoff, which inverts the small
    # singular values that J has off the root set
    spent = []
    retraction = opt._retraction

    def counted(x):
        result = yield from retraction(x)
        spent.append(result[2])
        return result

    monkeypatch.setattr(opt, "_retraction", counted)
    cfg = opt.OptimizerConfig(restarts=8, weight_grid=(1e-4,), seed=20200527)
    assert opt.cz_search("MBSL", lat.db_to_r(15.0), cfg).accepted
    assert spent and max(spent) < opt._RETRACT_ITERS


def test_each_hessian_is_served_with_its_jet(monkeypatch):
    # a descent yields only points; the Hessian at a root comes with the
    # root's jet, so no round serves Hessians alone (56 rounds did when a
    # descent asked for its Hessian a round after its jet)
    counts = {"rounds": 0, "jets": 0}
    serving = []
    served, reduce_jet, hessian = opt._served, _kernels.reduce_jet, _kernels.lagrangian_hessian

    def counted_served(*args):
        counts["rounds"] += 1
        serving.append(True)
        try:
            return served(*args)
        finally:
            serving.pop()

    def counted_jet(*args):
        counts["jets"] += 1
        return reduce_jet(*args)

    def checked_hessian(*args):
        assert serving, "a Hessian served outside a lockstep round's jet"
        return hessian(*args)

    monkeypatch.setattr(opt, "_served", counted_served)
    monkeypatch.setattr(_kernels, "reduce_jet", counted_jet)
    monkeypatch.setattr(_kernels, "lagrangian_hessian", checked_hessian)
    cfg = opt.OptimizerConfig(restarts=8, weight_grid=(1e-4,), seed=20200527)
    res = opt.cz_search("MBSL", lat.db_to_r(15.0), cfg)
    assert res.accepted and res.evals == 402
    # 33 lockstep rounds, and one more stacked jet scores the candidates
    assert counts == {"rounds": 33, "jets": 34}


def test_retraction_step_is_the_rank_truncated_least_squares_step():
    frozen = opt._region("MBSL", lat.db_to_r(15.0))
    x, ok, f, *_ = opt._lm_stack(frozen, _starts(frozen, 4))
    checked = 0
    for x0 in x[ok & (np.abs(f).sum(axis=-1) < opt.ROOT_TOL)]:
        y = x0 + 1e-2 * np.random.default_rng(checked).normal(size=frozen.n_free)
        fy, jac, *_ = frozen.jet(y)
        sv = np.linalg.svd(jac, compute_uv=False) / np.linalg.norm(jac, 2)
        assert ((sv > 1e2 * opt._RANK_TOL) | (sv < 1e-2 * opt._RANK_TOL)).all()  # a clear gap
        retraction = opt._retraction(y)
        served = opt._served(frozen, next(retraction)[None], [None])
        step = y - retraction.send(served[0])
        expected = np.linalg.lstsq(jac, fy, rcond=opt._RANK_TOL)[0]
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)
        checked += 1
    assert checked >= 2


def _starts(frozen, n, seed=0):
    return np.random.default_rng(seed).uniform(-math.pi, math.pi, (n, frozen.n_free))


def _one_start_solves(frozen, starts):
    return [opt._solve_block(frozen, x0[None])[0] for x0 in starts]


def _assert_same_solves(stacked, alone):
    assert len(stacked) == len(alone)
    for (x, evals, root), (x1, evals1, root1) in zip(stacked, alone):
        assert np.array_equal(x, x1)
        assert (evals, root) == (evals1, root1)


@pytest.mark.parametrize("db", [1.0, 15.0, 25.0])
@pytest.mark.parametrize("lattice, theta_c_free", [
    ("DBSL", False), ("BSL", False), ("MBSL", False), ("DBSL", True)])
def test_lockstep_solves_equal_one_start_solves(lattice, theta_c_free, db):
    # bit for bit: every per-point product of the stacked jet is a stacked
    # one, so a start's rounding does not depend on what else is stacked
    frozen = _region(lattice, lat.db_to_r(db), theta_c_free)
    starts = _starts(frozen, 8)
    _assert_same_solves(opt._solve_block(frozen, starts),
                        _one_start_solves(frozen, starts))


@pytest.mark.parametrize("lattice, theta_c_free", [
    ("DBSL", False), ("BSL", False), ("MBSL", False), ("DBSL", True)])
def test_stacked_svd_of_a_jet_stack_equals_one_matrix_svds(lattice, theta_c_free):
    # batch invariance of the descents rests on this: LAPACK runs per matrix
    frozen = _region(lattice, lat.db_to_r(15.0), theta_c_free)
    x, *_ = opt._lm_stack(frozen, _starts(frozen, 8))  # roots among them
    stack = np.concatenate([x, _starts(frozen, 8, seed=1)])
    _, _, jacs, *_ = _kernels.reduce_jet(stack, frozen)
    ranks = [_rank(jac) for jac in jacs]
    stacked = opt._served(frozen, stack, ranks)
    for jac, served in zip(jacs, stacked):
        for part, alone in zip(served[4:7], np.linalg.svd(jac, full_matrices=False)):
            assert np.array_equal(part, alone)
    # and a root's Hessian, gathered from the stack's terms, is the one it
    # is served alone; the random starts are not roots and get none
    roots = [i for i, served in enumerate(stacked) if served[7] is not None]
    assert roots and max(roots) < len(x)
    for i in roots:
        assert np.array_equal(stacked[i][7], opt._served(frozen, stack[[i]], [ranks[i]])[0][7])


def test_lockstep_solves_across_a_block_boundary():
    # blocks of _BLOCK and 3 starts give what one stack of all of them gives
    frozen = opt._region("MBSL", lat.db_to_r(15.0))
    starts = _starts(frozen, opt._BLOCK + 3, seed=1)
    _assert_same_solves(opt._solve_all(frozen, list(starts)), opt._solve_block(frozen, starts))


def test_degenerate_start_in_a_stack_gets_what_it_gets_alone():
    r = 1.0
    frozen = opt.freeze_region(lat.teleport_graph(math.tanh(2 * r)), np.eye(2), r)
    degenerate = np.array([0.3, 0.3])  # the d = 0 basis of the degeneracy test
    assert frozen.jet(degenerate) is None
    starts = np.insert(_starts(frozen, 6, seed=3), 2, degenerate, axis=0)
    stacked = opt._solve_block(frozen, starts)
    _assert_same_solves(stacked, _one_start_solves(frozen, starts))
    assert np.array_equal(stacked[2][0], degenerate) and stacked[2][1:] == (1, False)
    assert sum(root for _, _, root in stacked) == 6


def test_one_singular_lm_system_stops_only_its_own_start(monkeypatch):
    # np.linalg.solve raises for a whole stack when one matrix in it is
    # exactly singular; here a wrapped solve does so whenever its stack holds
    # the chosen start's first damped normal matrix
    frozen = opt._region("MBSL", lat.db_to_r(15.0))
    cfg = opt.OptimizerConfig(restarts=8, seed=5)
    starts, chosen = _starts(frozen, 8, seed=5), 3  # the search's own starts
    plain, plain_res = opt._solve_block(frozen, starts), opt.search(frozen, cfg)
    solve, seen = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(a[0].copy()) or solve(a, b))
    opt._lm_stack(frozen, starts[[chosen]])

    def singular_at_the_chosen_start(a, b):
        if any(np.array_equal(m, seen[0]) for m in a):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_at_the_chosen_start)
    others = np.delete(starts, chosen, axis=0)
    keep = np.arange(len(starts)) != chosen
    for got, alone in zip(opt._lm_stack(frozen, starts), opt._lm_stack(frozen, others)):
        assert np.array_equal(got[keep], alone)  # end points, mask, F, J, eliminations
    solved = opt._solve_block(frozen, starts)
    _assert_same_solves(solved[:chosen] + solved[chosen + 1:], opt._solve_block(frozen, others))
    # the chosen start stops where it is, like a start whose step does not move it
    assert np.array_equal(solved[chosen][0], starts[chosen]) and solved[chosen][1:] == (1, False)
    assert plain[chosen][1] > 1
    res = opt.search(frozen, cfg)
    assert res.accepted and res.evals == plain_res.evals - plain[chosen][1] + 1
    assert (res.perr, res.angles.tolist()) == (plain_res.perr, plain_res.angles.tolist())


@pytest.mark.parametrize("n", [1, 5, 11])
def test_first_end_points_do_not_depend_on_later_starts(n):
    frozen = opt._region("MBSL", lat.db_to_r(15.0))
    starts = list(_starts(frozen, 16, seed=4))
    _assert_same_solves(opt._solve_all(frozen, starts)[:n], opt._solve_all(frozen, starts[:n]))


def _reduced_hessian(frozen, x, null, h):
    """Central second differences of log perr along the root set, each
    point retracted from x + h (Z_i +- Z_j); at a stationary point this is
    the Riemannian Hessian for any retraction."""
    def log_perr(y):
        return math.log(opt._lockstep(frozen, [opt._retraction(y)], [None])[0][1][2])

    d = len(null)
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            a, b = h * null[i], h * null[j]
            hess[i, j] = (log_perr(x + a + b) - log_perr(x + a - b)
                          - log_perr(x - a + b) + log_perr(x - a - b)) / (4 * h * h)
    return (hess + hess.T) / 2


@pytest.mark.parametrize("lattice, theta_c_free", [
    ("BSL", False), ("MBSL", False), ("DBSL", True)])
def test_descent_ends_at_a_strict_local_minimum(lattice, theta_c_free):
    frozen = _region(lattice, lat.db_to_r(15.0), theta_c_free)
    res = opt.search(frozen, opt.OptimizerConfig(restarts=8, seed=20200527))
    assert res.accepted
    _, jac, _, grad = frozen.jet(res.angles)
    _, sv, vt = np.linalg.svd(jac)
    null = vt[int((sv > opt._RANK_TOL * sv[0]).sum()):]
    assert len(null) >= 1
    assert np.linalg.norm(null @ grad) <= 1e-6
    # measured: 0.36/1.07 (BSL), 0.20/0.29/1.17 (MBSL), 2.01 (DBSL with theta_c)
    assert np.linalg.eigvalsh(_reduced_hessian(frozen, res.angles, null, 1e-3)).min() > 0


def _rank(jac):
    sv = np.linalg.svd(jac, compute_uv=False)
    return int((sv > opt._RANK_TOL * sv[0]).sum())


def _exact_reduced_hessian(frozen, x, rank):
    """The served jet at x and the reduced Hessian the descent from x reads
    first: the Hessian served with the jet, in the jet's null space."""
    descent = opt._feasible_descent(x, rank)
    jet = opt._served(frozen, next(descent)[None], [rank])[0]
    # the served Hessian is the kernel's, at the multipliers of the served SVD
    _, _, _, grad, u, sv, vt, hess = jet
    lam = u[:, :rank] @ ((vt[:rank] @ grad) / sv[:rank])
    terms = _kernels.reduce_jet(x[None], frozen)[-1]
    assert np.array_equal(hess, _kernels.lagrangian_hessian(terms, lam[None], frozen)[0])
    # and the descent, sent the jet, yields its next point or ends
    with contextlib.suppress(StopIteration):
        assert isinstance(descent.send(jet), np.ndarray)
    null = vt[rank:]
    return jet, null @ hess @ null.T


def _differenced_reduced_hessian(frozen, x, jet, rank, h):
    """Forward differences of the projected gradient over probes retracted
    from x + h Z_i, each probe's gradient projected onto its own null space."""
    null = jet[6][rank:]
    grad = null @ jet[3]
    cols = []
    for z in null:
        _, probe, _ = opt._lockstep(frozen, [opt._retraction(x + h * z)], [None])[0]
        probe_null = probe[6][rank:]
        cols.append((null @ (probe_null.T @ (probe_null @ probe[3])) - grad) / h)
    return np.array(cols)


@pytest.mark.parametrize("lattice, theta_c_free", [
    ("BSL", False), ("MBSL", False), ("DBSL", True)])
def test_exact_reduced_hessian_matches_differences(lattice, theta_c_free):
    frozen = _region(lattice, lat.db_to_r(15.0), theta_c_free)
    x, ok, f, jac, _ = opt._lm_stack(frozen, _starts(frozen, 16))
    roots = [(x[i], _rank(jac[i]))
             for i in np.flatnonzero(ok & (np.abs(f).sum(axis=-1) < opt.ROOT_TOL))]
    roots = [(y, rank) for y, rank in roots if rank < frozen.n_free][:5]
    assert len(roots) == 5
    for y, rank in roots:
        jet, exact = _exact_reduced_hessian(frozen, y, rank)
        assert np.linalg.norm(jet[6][rank:] @ jet[3]) > 1e-2  # not stationary
        differenced = _differenced_reduced_hessian(frozen, y, jet, rank, 1e-7)
        assert np.abs(exact - differenced).max() <= 1e-5 * np.abs(exact).max()
    # at the winner, a stationary point, central differences of log perr
    # along the roots give the same Hessian for any retraction
    best = opt.search(frozen, opt.OptimizerConfig(restarts=8, seed=20200527)).angles
    rank = _rank(frozen.jet(best)[1])
    jet, exact = _exact_reduced_hessian(frozen, best, rank)
    for reference in (_differenced_reduced_hessian(frozen, best, jet, rank, 1e-7),
                      _reduced_hessian(frozen, best, jet[6][rank:], 1e-3)):
        assert np.abs(exact - reference).max() <= 1e-5 * np.abs(exact).max()
    # a row of a stacked Hessian is the one it gets alone, from its own jet
    # or gathered from the stack's terms
    stack = np.array([best] + [y for y, _ in roots])
    ok, *jet, terms = _kernels.reduce_jet(stack, frozen)
    assert ok.all()
    lam = np.random.default_rng(0).normal(size=jet[0].shape)
    stacked = _kernels.lagrangian_hessian(terms, lam, frozen)
    for i, y in enumerate(stack):
        alone = _kernels.lagrangian_hessian(_kernels.reduce_jet(y[None], frozen)[-1], lam[[i]],
                                            frozen)
        gathered = _kernels.lagrangian_hessian([part[[i]] for part in terms], lam[[i]], frozen)
        assert np.array_equal(stacked[i], alone[0]) and np.array_equal(stacked[i], gathered[0])


def test_variable_theta_c_descent_does_not_crawl_at_a_rank_drop():
    # one start walked to where sigma_10 / sigma_1 is about 1.6e-7 and, with
    # a differenced reduced Hessian there, ran to _DESCENT_EVALS (5,718
    # eliminations for the search)
    res = opt.search(_region("DBSL", lat.db_to_r(20.0), theta_c_free=True),
                     opt.OptimizerConfig(restarts=16, seed=11))
    assert res.accepted
    assert res.perr == pytest.approx(0.001057384726736686, rel=1e-12)
    assert res.evals <= 2500


@pytest.mark.parametrize("db", [24.25, 25.0])
def test_descent_steps_off_the_closed_form_saddle(db):
    # above 24.1 dB the closed form is a saddle of perr on the MBSL root set:
    # the descent ends there on its first-order test, and must step off along
    # the negative curvature, the same way under every seed
    r = lat.db_to_r(db)
    shipped = gates.find_row(gates.load_basis_table(), "MBSL", db)["perr"]
    a, b = (opt.cz_search("MBSL", r, opt.OptimizerConfig(restarts=1, seed=seed),
                          warm_starts=[gates.mbsl_cz_angles(r)]) for seed in (0, 20200527))
    assert np.array_equal(a.angles, b.angles)
    assert dataclasses.replace(a, angles=None) == dataclasses.replace(b, angles=None)
    assert a.accepted and a.descents == 1
    assert a.perr <= shipped * (1 + 1e-9)


def test_accepted_lm_end_above_root_tol_takes_a_gauss_newton_step():
    # at 0.5 dB LM stops where |F|_1 floors above ROOT_TOL; one Gauss-Newton
    # step from there lands on the closed form, under every seed
    def closed(db):
        return np.array(np.broadcast_arrays(*gates.dbsl_cz_angles(lat.db_to_r(db))), dtype=float)

    for seed in (0, 20200527):
        res = opt.cz_search("DBSL", lat.db_to_r(0.5), opt.OptimizerConfig(restarts=1, seed=seed),
                            warm_starts=[closed(0.75)])
        turn = (res.angles - closed(0.5) + math.pi / 2) % math.pi - math.pi / 2
        assert res.accepted and np.abs(turn).max() <= 1e-11


def test_first_search_imports_no_masked_arrays_and_no_scipy():
    # a fresh interpreter's first search imports neither numpy.random (nor
    # its secrets and hashlib), even where it draws uniform starts; a lazily
    # imported numpy.ma (for example through np.unique) or scipy would add
    # its import time to every process's first search
    code = (
        "import sys\n"
        "from cvmbqc import gates, lattice, optimizer\n"
        "r = lattice.db_to_r(15.0)\n"
        "before = set(sys.modules)\n"
        "optimizer.cz_search('MBSL', r, optimizer.OptimizerConfig(restarts=1),\n"
        "                    warm_starts=[gates.cz_start('MBSL', r)])\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "optimizer.cz_search('MBSL', r, optimizer.OptimizerConfig(restarts=2))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = str(Path(opt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    warm, cold = (line.split() for line in proc.stdout.splitlines())
    assert not {"numpy.random", "secrets", "hashlib"} & (set(warm) | set(cold))
    assert not [name for name in cold
                if name.split(".")[:2] == ["numpy", "ma"] or name.split(".")[0] == "scipy"]


def test_uniform_starts_are_numpys_default_rng_draws():
    # the in-module PCG64 stream, bit for bit, over seeds of one to five
    # 32-bit words and a numpy integer
    for seed in [*range(200), 20200527, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 130 + 7,
                 np.int64(7)]:
        for count in (0, 1, 259):
            ours = opt._uniform_starts(seed, count, 12)
            numpys = np.random.default_rng(seed).uniform(-math.pi, math.pi, (count, 12))
            assert ours.shape == numpys.shape and ours.dtype == numpys.dtype
            assert np.array_equal(ours, numpys), (seed, count)


# Best perr of 16-start searches (seed 11) with the projected steepest
# descent that the Newton descent replaced.
_STEEPEST_DESCENT_PERR = [
    ("BSL", 1.0, False, 0.9979352609285052),
    ("BSL", 5.0, False, 0.9482082333075218),
    ("BSL", 10.0, False, 0.6679125047957808),
    ("BSL", 15.0, False, 0.1442177190811717),
    ("BSL", 20.0, False, 0.0010693113645964718),
    ("BSL", 25.0, False, 5.070494744352998e-10),
    ("MBSL", 1.0, False, 0.9981229493427822),
    ("MBSL", 5.0, False, 0.9373867141367132),
    ("MBSL", 10.0, False, 0.6311108800509857),
    ("MBSL", 15.0, False, 0.11767573281586889),
    ("MBSL", 20.0, False, 0.0007496692024584603),
    ("MBSL", 25.0, False, 6.528388156943173e-10),
    ("DBSL", 5.0, True, 0.9434618334621698),
    ("DBSL", 15.0, True, 0.13677692657900753),
    ("DBSL", 25.0, True, 7.749615825210251e-10),
]


@pytest.mark.parametrize("lattice, db, variable_theta_c, steepest", _STEEPEST_DESCENT_PERR,
                         ids=[f"{row[0]}{'+theta_c' if row[2] else ''}-{row[1]:g}dB"
                              for row in _STEEPEST_DESCENT_PERR])
def test_winner_no_worse_than_steepest_descent(lattice, db, variable_theta_c, steepest):
    # with theta_c free the winner is the closed-form family's theta_c optimum
    if variable_theta_c:
        perr = opt.dbsl_theta_c_optimum(lat.db_to_r(db))[1]
    else:
        res = opt.cz_search(lattice, lat.db_to_r(db), opt.OptimizerConfig(restarts=16, seed=11))
        assert res.accepted
        perr = res.perr
    assert perr <= steepest * (1 + 1e-12)


def test_search_writes_nothing_and_warns_nothing(capsys):
    cfg = opt.OptimizerConfig(restarts=4, seed=20200527)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert opt.cz_search("MBSL", lat.db_to_r(15.0), cfg).accepted
        assert opt.dbsl_theta_c_optimum(lat.db_to_r(15.0))[1] < 1
    assert capsys.readouterr() == ("", "")


def test_descent_error_reaches_the_caller(monkeypatch):
    def broken(x, frozen):
        raise FloatingPointError("injected")

    frozen = opt._region("MBSL", lat.db_to_r(15.0))
    monkeypatch.setattr(_kernels, "reduce_jet", broken)
    with pytest.raises(FloatingPointError, match="injected"):
        opt.search(frozen, opt.OptimizerConfig(restarts=4, seed=0, weight_grid=(1e-8,)))


def test_infeasible_flagged_not_raised():
    graph = lat.teleport_graph(0.5)
    # a 2x2 non-symplectic "target" no basis can reach
    frozen = opt.freeze_region(graph, np.array([[2.0, 0.0], [0.0, 2.0]]), 1.0)
    res = opt.search(frozen, opt.OptimizerConfig(restarts=4, seed=0, weight_grid=(1e-8,)))
    assert not res.accepted
    assert res.residual >= 1e-5


def test_variable_theta_c_beats_or_matches_fixed():
    r = lat.db_to_r(15.0)
    fixed = opt.cz_search("DBSL", r, opt.OptimizerConfig(restarts=12, seed=7,
                                                         weight_grid=(1e-8, 1e-3)))
    assert fixed.accepted
    theta_c, perr = opt.dbsl_theta_c_optimum(r)
    assert theta_c == pytest.approx(math.pi / 4, abs=0.6)
    assert perr <= fixed.perr * 1.0 + 1e-12


@pytest.mark.parametrize("db", [0.25, 15.0, 25.0])
def test_kernel_perr_matches_closed_form_dbsl(db):
    # near 1 and deep in the tail the kernel's perr keeps its digits: no
    # cancellation against 1 and no clamp
    r = lat.db_to_r(db)
    _, perr = opt._region("DBSL", r).metrics(gates.dbsl_cz_angles(r))
    closed = gkp.gate_error_probability(gates.dbsl_cz_plan(r))
    assert perr == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("d", [0.0, 1e-15, 1e-14, 1e-13, 1e-11, 1e-10, 1e-9])
def test_kernel_and_reduce_agree_on_degeneracy(d):
    r = 1.0
    graph = lat.teleport_graph(math.tanh(2 * r))
    frozen = opt.freeze_region(graph, np.eye(2), r)
    angles = [0.3, 0.3 + d]
    resid, _ = frozen.metrics(angles)
    try:
        reduce_region(graph, graph.full_basis(angles))
        raised = False
    except MeasurementDegenerateError:
        raised = True
    assert (resid == _kernels.BAD_VALUE) == raised


@pytest.mark.parametrize("d, degenerate", [(3e-12, True), (1e-10, False), (1e-8, False)])
def test_nearly_parallel_cz_rows_follow_the_svd_rule(d, degenerate):
    # free angles 0 and 1 measure DBSL CZ modes 2 and 0, the two outputs of
    # one beam splitter: at equal angles their measured rows are parallel
    # and rcond grows about linearly with the difference d.  d = 1e-10 sits
    # between RCOND_MIN and the margin of the Frobenius bound, where only the
    # SVD can accept the basis.
    r = lat.db_to_r(15.0)
    frozen = opt._region("DBSL", r)
    x = np.random.default_rng(5).uniform(-math.pi, math.pi, frozen.n_free)
    x[1] = x[0] + d
    theta = frozen.theta_base + frozen.a_map @ x
    k = len(theta)
    u = (np.cos(theta)[:, None] * frozen.s0x + np.sin(theta)[:, None] * frozen.s0p)[:, :k]
    sv = np.linalg.svd(u, compute_uv=False)
    assert (sv[-1] / sv[0] < red.RCOND_MIN) == degenerate
    if d == 1e-10:
        assert sv[-1] / sv[0] < 100 * red.RCOND_MIN
    resid, _ = frozen.metrics(x)
    assert (resid == _kernels.BAD_VALUE) == degenerate
    if degenerate:
        with pytest.raises(MeasurementDegenerateError):
            reduce_region(frozen.graph, theta)
    else:
        reduce_region(frozen.graph, theta)  # returns: the SVD accepts the basis


def test_eliminate_decides_degeneracy_per_point_of_a_mixed_stack():
    # exactly singular U's (LAPACK refuses them), one the SVD rejects (DBSL
    # d = 3e-12), one only the SVD accepts (d = 1e-10, inside the margin of
    # the Frobenius bound) and healthy points, in one stack per region
    r = 1.0
    teleport = opt.freeze_region(lat.teleport_graph(math.tanh(2 * r)), np.eye(2), r)
    dbsl = opt._region("DBSL", lat.db_to_r(15.0))
    x = np.random.default_rng(5).uniform(-math.pi, math.pi, dbsl.n_free)
    near = np.repeat(x[None], 4, axis=0)
    near[:, 1] = x[0] + np.array([0.0, 3e-12, 1e-10, 1e-8])
    cases = [(teleport, np.array([[0.3, 0.3], [0.3, 0.5], [1.1, -0.4]]), [False, True, True]),
             (dbsl, np.concatenate([near, _starts(dbsl, 3, seed=6)]),
              [False, False, True, True, True, True, True])]
    for frozen, xs, expected in cases:
        graph = frozen.graph
        theta = frozen.theta_base + xs @ frozen.a_map.T
        s0x, s0p, out = red.split_s0(graph)
        meas = np.cos(theta)[..., None] * s0x + np.sin(theta)[..., None] * s0p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, kmat, u_inv, ok = red.eliminate(meas, out)
            raised = []
            for basis in theta:
                try:
                    reduce_region(graph, basis)
                    raised.append(False)
                except MeasurementDegenerateError:
                    raised.append(True)
            alone = [red.eliminate(row, out) for row in meas]
            kernel_ok = _kernels.reduce_jet(xs, frozen)[0]
        assert ok.tolist() == expected == [not bad for bad in raised]
        assert np.array_equal(kernel_ok, ok)
        for i, (m1, kmat1, u_inv1, ok1) in enumerate(alone):
            assert ok1 == ok[i]
            assert np.array_equal(m[i], m1) and np.array_equal(u_inv[i], u_inv1)
            assert np.array_equal(kmat[i], kmat1)
        assert np.array_equal(m[~ok], np.broadcast_to(out[:, len(theta[0]):], m[~ok].shape))
        assert not u_inv[~ok].any() and not kmat[~ok].any()
        with pytest.raises(MeasurementDegenerateError):
            reduce_region(graph, theta)
        reduce_region(graph, theta[ok])  # returns: every point is accepted


# The 21 variable-theta_c DBSL rows that the 11-angle search (200 starts at
# 15 dB, continued outward, seed 20200527) last wrote into the basis table:
# (dB, theta_c, perr).
SEARCHED_THETA_C_ROWS = [
    (5.0, 0.7976974856274979, 0.9434618334621699),
    (6.0, 0.7490754214891397, 0.9130602007990659),
    (7.0, 0.7197981665513653, 0.871251786130627),
    (8.0, 0.7030668926098973, 0.8153374933282308),
    (9.0, 0.694606879982897, 0.743262671985026),
    (10.0, 0.6917911229264977, 0.6545393853807295),
    (11.0, 0.6930227779372367, 0.5512758133765344),
    (12.0, 0.6973296101341687, 0.43888303487289315),
    (13.0, 0.7040964146382425, 0.3258584149735969),
    (14.0, 0.7128839986737816, 0.222213808874532),
    (15.0, 0.7233078744826487, 0.13677692657900797),
    (16.0, 0.7349676975237375, 0.07446611121802593),
    (17.0, 0.7474261669358437, 0.034995607846141856),
    (18.0, 0.7602311331592315, 0.013769754452612104),
    (19.0, 0.7729611212188751, 0.0043619537339492495),
    (20.0, 0.7852652414067081, 0.0010573847267367317),
    (21.0, 0.7968763573205963, 0.00018371678055152817),
    (22.0, 0.8075972922417635, 2.104234687615133e-05),
    (23.0, 0.8172751103626379, 1.4288310079470795e-06),
    (24.0, 0.8257758643446927, 5.029892944117321e-08),
    (25.0, 0.8329624837444852, 7.749615825212089e-10),
]


def test_theta_c_optimum_reproduces_the_searched_rows():
    # the 1-d minimum over the closed-form family finds the search's rows,
    # and each optimum is an exact root whose plan the oracle passes
    from cvmbqc import oracle

    dbs, theta_c, perr = theta_c_optima()
    assert dbs.tolist() == [row[0] for row in SEARCHED_THETA_C_ROWS]
    for (db, old_theta_c, old_perr), tc, p in zip(SEARCHED_THETA_C_ROWS, theta_c, perr):
        assert abs(tc - old_theta_c) <= 1e-7, db
        assert p == pytest.approx(old_perr, rel=1e-12, abs=0), db
        plan = gates.dbsl_cz_plan(lat.db_to_r(db), tc)
        assert np.abs(gates.realize(plan).G - plan.target).sum() < 1e-13, db
        assert oracle.verify_plan(plan, tol=1e-9)["pass"], db


def test_theta_c_optimum_is_the_lowest_of_three_minima():
    # the scan brackets the same three local minima at every grid point, and
    # a stacked call gives each point what it gets alone
    dbs, theta_c, perr = theta_c_optima()
    i, minima, minima_perr = opt._theta_c_minima(lat.db_to_r(dbs))
    assert np.bincount(i).tolist() == [3] * len(dbs)
    assert (np.abs(np.subtract.outer(minima, np.array([0.77, 1.82, 2.45]))).min(axis=1)
            < 0.1).all()
    lowest = [minima[i == j][np.argmin(minima_perr[i == j])] for j in range(len(dbs))]
    assert np.array_equal(lowest, theta_c)
    alone = opt.dbsl_theta_c_optimum(lat.db_to_r(dbs[7]))
    assert (alone[0].shape, float(alone[0]), float(alone[1])) == ((), theta_c[7], perr[7])
