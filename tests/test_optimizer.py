import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from cvmbqc import _kernels, gates, gkp
from cvmbqc import lattice as lat
from cvmbqc import optimizer as opt
from cvmbqc import reduction as red
from cvmbqc.errors import MeasurementDegenerateError
from cvmbqc.reduction import reduce as reduce_region

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


@pytest.mark.parametrize("lattice, variable_theta_c", [
    ("DBSL", False), ("BSL", False), ("MBSL", False), ("QRL", False), ("DBSL", True)])
def test_jet_matches_central_differences(lattice, variable_theta_c):
    # near a root, where the solves and the descent use the derivatives
    frozen = opt._region(lattice, lat.db_to_r(15.0), variable_theta_c)
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
    x, _, f, _, perr, *_ = opt._lm_stack(frozen, x0[None])
    ref = least_squares(lambda y: frozen.jet(y)[0], x0, jac=lambda y: frozen.jet(y)[1],
                        method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert np.abs(f[0]).sum() < opt.ROOT_TOL
    assert frozen.metrics(ref.x)[0] < opt.ROOT_TOL
    assert perr[0] == pytest.approx(frozen.metrics(ref.x)[1], rel=1e-9)
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
    var = opt.cz_search("DBSL", r, opt.OptimizerConfig(restarts=4, seed=3),
                        variable_theta_c=True)
    assert 0 <= var.theta_c < math.pi
    assert np.all((-math.pi / 2 <= var.angles) & (var.angles < math.pi / 2))


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


def test_qrl_search_matches_closed_form_plan():
    r = lat.db_to_r(10.0)
    res = opt.cz_search("QRL", r, opt.OptimizerConfig(restarts=6, seed=1,
                                                      weight_grid=(1e-8, 1e-2)))
    assert res.accepted
    closed = gkp.gate_error_probability(gates.qrl_cz_plan(r))
    assert res.perr == pytest.approx(closed, abs=1e-6)


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
    assert res.evals <= 600  # 739 with lstsq retraction steps, 4,502 with steepest descent


def test_winners_are_bit_identical_to_per_candidate_scoring():
    # literals from the search that scored each candidate with its own
    # one-point jet; the stacked scoring pass must not move a bit
    res = opt.cz_search("MBSL", lat.db_to_r(15.0), opt.OptimizerConfig(restarts=8, seed=20200527))
    assert res.angles.tolist() == [
        -0.785398163397456, 0.7853981633974403, 1.57079632679489, 5.2479169285435586e-17,
        0.6164228318068213, -0.6164228318068017, 4.2537849918568225e-15, -1.5707963267948957,
        0.4652495283334749, -0.46524952833347505, -1.5707963267948757, 1.5707963267948735]
    assert (res.perr, res.residual, res.accepted) == (0.11767573281586766, 3.1350649437800814e-15,
                                                      True)
    assert (res.evals, res.roots, res.descents) == (559, 8, 8)
    # a degenerate exact warm start is a candidate that scores BAD_VALUE
    r = 1.0
    frozen = opt.freeze_region(lat.teleport_graph(math.tanh(2 * r)), np.eye(2), r)
    res = opt.search(frozen, opt.OptimizerConfig(restarts=6, seed=3),
                     warm_starts=[np.array([0.3, 0.3])])
    assert res.angles.tolist() == [0.80371175462753, -0.80371175462753]
    assert (res.perr, res.residual, res.accepted) == (0.17195552770533246, 2.2006601992804018e-16,
                                                      True)
    assert (res.evals, res.roots, res.descents) == (42, 5, 6)


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
        served = opt._served(*_kernels.reduce_jet(next(retraction), frozen))
        step = y - retraction.send(served)[0]
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
@pytest.mark.parametrize("lattice, variable_theta_c", [
    ("DBSL", False), ("BSL", False), ("MBSL", False), ("QRL", False), ("DBSL", True)])
def test_lockstep_solves_equal_one_start_solves(lattice, variable_theta_c, db):
    # bit for bit: every per-point product of the stacked jet is a stacked
    # one, so a start's rounding does not depend on what else is stacked
    frozen = opt._region(lattice, lat.db_to_r(db), variable_theta_c)
    starts = _starts(frozen, 8)
    _assert_same_solves(opt._solve_block(frozen, starts),
                        _one_start_solves(frozen, starts))


@pytest.mark.parametrize("lattice, variable_theta_c", [
    ("DBSL", False), ("BSL", False), ("MBSL", False), ("QRL", False), ("DBSL", True)])
def test_stacked_svd_of_a_jet_stack_equals_one_matrix_svds(lattice, variable_theta_c):
    # batch invariance of the descents rests on this: LAPACK runs per matrix
    frozen = opt._region(lattice, lat.db_to_r(15.0), variable_theta_c)
    x, *_ = opt._lm_stack(frozen, _starts(frozen, 8))  # roots among them
    stack = np.concatenate([x, _starts(frozen, 8, seed=1)])
    ok, *jet = _kernels.reduce_jet(stack, frozen)
    for jac, served in zip(jet[1], opt._served(ok, *jet)):
        for part, alone in zip(served[4:], np.linalg.svd(jac, full_matrices=False)):
            assert np.array_equal(part, alone)


def test_lockstep_solves_across_a_block_boundary():
    # blocks of _BLOCK and 3 starts give what one stack of all of them gives
    frozen = opt._region("QRL", lat.db_to_r(15.0))
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
        return math.log(opt._lockstep(frozen, [opt._retraction(y)])[0][1][2])

    d = len(null)
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            a, b = h * null[i], h * null[j]
            hess[i, j] = (log_perr(x + a + b) - log_perr(x + a - b)
                          - log_perr(x - a + b) + log_perr(x - a - b)) / (4 * h * h)
    return (hess + hess.T) / 2


@pytest.mark.parametrize("lattice, variable_theta_c", [
    ("BSL", False), ("MBSL", False), ("DBSL", True)])
def test_descent_ends_at_a_strict_local_minimum(lattice, variable_theta_c):
    frozen = opt._region(lattice, lat.db_to_r(15.0), variable_theta_c)
    res = opt.search(frozen, opt.OptimizerConfig(restarts=8, seed=20200527))
    assert res.accepted
    _, jac, _, grad = frozen.jet(res.angles)
    _, sv, vt = np.linalg.svd(jac)
    null = vt[int((sv > opt._RANK_TOL * sv[0]).sum()):]
    assert len(null) >= 1
    assert np.linalg.norm(null @ grad) <= 1e-6
    # measured: 0.36/1.07 (BSL), 0.20/0.29/1.17 (MBSL), 2.01 (DBSL with theta_c)
    assert np.linalg.eigvalsh(_reduced_hessian(frozen, res.angles, null, 1e-3)).min() > 0


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
    res = opt.cz_search(lattice, lat.db_to_r(db), opt.OptimizerConfig(restarts=16, seed=11),
                        variable_theta_c=variable_theta_c)
    assert res.accepted
    assert res.perr <= steepest * (1 + 1e-12)


def test_search_writes_nothing_and_warns_nothing(capsys):
    cfg = opt.OptimizerConfig(restarts=4, seed=20200527)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert opt.cz_search("MBSL", lat.db_to_r(15.0), cfg).accepted
        assert opt.cz_search("DBSL", lat.db_to_r(15.0), cfg, variable_theta_c=True).accepted
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
    var = opt.cz_search(
        "DBSL", r, opt.OptimizerConfig(restarts=12, seed=7, weight_grid=(1e-8, 1e-3)),
        warm_starts=[np.array(list(fixed.angles))] if fixed.accepted else (),
        variable_theta_c=True)
    assert var.accepted
    assert var.theta_c == pytest.approx(math.pi / 4, abs=0.6)
    assert var.perr <= fixed.perr * 1.0 + 1e-12


@pytest.mark.parametrize("db", [0.25, 15.0, 25.0])
def test_kernel_perr_matches_closed_form_qrl(db):
    # near 1 and deep in the tail the kernel's perr keeps its digits: no
    # cancellation against 1 and no clamp
    r = lat.db_to_r(db)
    frozen = opt._region("QRL", r)
    _, perr = frozen.metrics(opt._warm_starts("QRL", r)[0])
    closed = gkp.gate_error_probability(gates.qrl_cz_plan(r))
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
    basis = dict(zip(frozen.graph.measured_modes, theta))
    if degenerate:
        with pytest.raises(MeasurementDegenerateError):
            reduce_region(frozen.graph, basis)
    else:
        assert reduce_region(frozen.graph, basis).rcond >= red.RCOND_MIN


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
        bases = [dict(zip(graph.measured_modes, row)) for row in theta]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, u_inv, ok = red.eliminate(meas, out)
            raised = []
            for basis in bases:
                try:
                    reduce_region(graph, basis)
                    raised.append(False)
                except MeasurementDegenerateError:
                    raised.append(True)
            alone = [red.eliminate(row, out) for row in meas]
            kernel_ok = _kernels.reduce_jet(xs, frozen)[0]
        assert ok.tolist() == expected == [not bad for bad in raised]
        assert np.array_equal(kernel_ok, ok)
        for i, (m1, u_inv1, ok1) in enumerate(alone):
            assert ok1 == ok[i]
            assert np.array_equal(m[i], m1) and np.array_equal(u_inv[i], u_inv1)
        assert np.array_equal(m[~ok], np.broadcast_to(out[:, len(theta[0]):], m[~ok].shape))
        assert not u_inv[~ok].any()
        stacked = {mode: theta[:, i] for i, mode in enumerate(graph.measured_modes)}
        with pytest.raises(MeasurementDegenerateError):
            reduce_region(graph, stacked)
        good = {mode: angles[ok] for mode, angles in stacked.items()}
        assert reduce_region(graph, good).rcond.min() >= red.RCOND_MIN
