"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criteria 5 and 6 read the optimized-basis table shipped with the package, and
criterion 7 minimizes the closed-form DBSL CZ plan over its control basis
theta_c; everything else is closed-form or oracle-backed and self-contained.
The table is what this one command writes; it has no seed and reads no
earlier table, so it writes the same file every time.  Each lattice is one
search from its start in code (``gates.cz_start``) at the grid point nearest
``cli.ANCHOR_DB`` and a continuation outward from it, and the run writes the
whole table once:

    cvmbqc optimize --lattice DBSL BSL MBSL --db-min 0.25 --db-max 25 \
        --db-step 0.25 --out src/cvmbqc/data/cz_basis_table.json
"""

import math

import numpy as np
import pytest

from cvmbqc import gates, gkp, optimizer, oracle
from cvmbqc import lattice as lat
from cvmbqc import symplectic as sp
from cvmbqc.reduction import noise_factors
from cvmbqc.reduction import reduce as reduce_region

from conftest import record_criterion, theta_c_optima

TH = math.tanh


def _report(number, description):
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException as exc:
                record_criterion(number, description, False, str(exc)[:120])
                raise
            record_criterion(number, description, True, detail)
        inner.__name__ = fn.__name__
        return inner
    return wrap


@_report(1, "closed-form quadrature noise factors, 1e-10 relative, 20 points in 0-25 dB")
def test_criterion_1_noise_factors():
    worst = 0.0
    for db in np.linspace(1.25, 25.0, 20):
        r = lat.db_to_r(db)
        th = TH(2 * r)

        def rel(plan_nf, expect):
            return float(np.max(np.abs(np.asarray(plan_nf) / np.asarray(expect) - 1.0)))

        for lattice in ("DBSL", "BSL"):
            nf = noise_factors(gates.realize(gates.basis_for(lattice, "I", r)))
            worst = max(worst, rel(nf, [th ** -4 + th ** -2, th ** 2 + 1]))
        params = lat.LatticeParams.from_r("MBSL", r)
        g0 = lat.single_step_graph(params, theta_c=0.0)
        nf = noise_factors(reduce_region(g0, g0.full_basis([0.3, -0.8])))
        worst = max(worst, rel(nf, [2 * th ** -2, 1.0]))
        nf = noise_factors(gates.realize(gates.basis_for("MBSL", "I", r)))
        worst = max(worst, rel(nf, [th ** -2, 2.0]))
        nf = noise_factors(gates.realize(gates.basis_for("QRL", "I", r)))
        worst = max(worst, rel(nf, [th ** -2, 1.0]))
        nf = noise_factors(gates.realize(gates.dbsl_swap_plan(r)))
        nx, npp = th ** -4 + 3 * th ** -2, th ** 2 + 3
        worst = max(worst, rel(nf, [nx, nx, npp, npp]))
    assert worst < 1e-10
    return f"worst rel dev {worst:.2e}"


@_report(2, "published N matrices exact to 1e-12 at r in {0.5, 1, 2}")
def test_criterion_2_published_matrices():
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        t = TH(2 * r)
        res = reduce_region(lat.teleport_graph(t), [0.4, -0.7])
        worst = max(worst, np.abs(res.N - [[-1 / t, 0], [0, 1]]).max())

        params = lat.LatticeParams.from_r("DBSL", r)
        g = lat.single_step_graph(params)
        res = reduce_region(g, g.full_basis([0.4, -0.7]))
        t = params.t
        appendix_n = np.array([
            [-1 / (4 * t * t), 1 / (4 * t), 1 / (4 * t), -1 / (4 * t), 1 / (4 * t), 0],
            [0, t, t, t, -t, 1]])
        worst = max(worst, np.abs(res.N - appendix_n).max())

        params = lat.LatticeParams.from_r("BSL", r)
        g = lat.single_step_graph(params)
        res = reduce_region(g, g.full_basis([0.4, -0.7]))
        t = params.t
        bsl_n = np.array([[1 / (2 * t * t), 1 / (2 * t), -1 / (2 * t), 0],
                          [0, -t, -t, 1]])
        worst = max(worst, np.abs(res.N - bsl_n).max())

        params = lat.LatticeParams.from_r("MBSL", r)
        g = lat.single_step_graph(params, theta_c=math.pi / 2)
        res = reduce_region(g, g.full_basis([0.4, -0.7]))
        t = params.t
        a_n = np.array([[-1 / (2 * t), -1 / (2 * t), 0, 0], [0, 0, -1, 1]])
        worst = max(worst, np.abs(res.N - a_n).max())
    assert worst < 1e-12
    return f"worst entry dev {worst:.2e}"


@_report(3, "gate correctness: |G - T|_1 < 1e-8 for I, F, P1; QRL FFCZ < 1e-5")
def test_criterion_3_gate_correctness():
    worst = 0.0
    for db in np.arange(0.5, 25.01, 0.5):
        r = lat.db_to_r(db)
        for lattice in ("DBSL", "BSL", "MBSL", "QRL"):
            for gate_id in ("I", "F", "P1"):
                plan = gates.basis_for(lattice, gate_id, r)
                worst = max(worst, np.abs(gates.realize(plan).G - plan.target).sum())
    assert worst < 1e-8
    worst_cz = 0.0
    for db in (0.5, 5.0, 15.0, 25.0):
        plan = gates.qrl_cz_plan(lat.db_to_r(db))
        worst_cz = max(worst_cz, np.abs(gates.realize(plan).G - plan.target).sum())
    assert worst_cz < 1e-5
    return f"single-mode worst {worst:.2e}, QRL FFCZ worst {worst_cz:.2e}"


@_report(4, "oracle equivalence at 1e-9 for every cataloged plan, r in {0.25..2.0}")
def test_criterion_4_oracle_equivalence():
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 1.5, 2.0):
        for plan in gates.iter_catalog(r):
            rep = oracle.verify_plan(plan, tol=1e-9)
            assert rep["pass"], rep
            worst = max(worst, rep["max_var_dev"], rep["max_cov_dev"],
                        rep["max_mean_dev"])
    assert worst <= 1e-9
    return f"worst dev {worst:.2e}"


@_report(5, "limits: P_err -> 1 at vanishing squeezing, monotone in r, FFCZ dominates")
def test_criterion_5_limits():
    r0 = lat.db_to_r(0.01)
    floor = 1.0
    for lattice in ("DBSL", "BSL", "MBSL", "QRL"):
        for gate_id in ("I", "F", "P1"):
            floor = min(floor, gkp.gate_error_probability(
                gates.basis_for(lattice, gate_id, r0)))
    floor = min(floor, gkp.gate_error_probability(gates.qrl_cz_plan(r0)))
    assert floor >= 0.99

    grid = np.arange(0.25, 25.01, 0.25)
    for lattice in ("DBSL", "BSL", "MBSL", "QRL"):
        for gate_id in ("I", "F", "P1"):
            prev = None
            for db in grid:
                p = gkp.gate_error_probability(
                    gates.basis_for(lattice, gate_id, lat.db_to_r(db)))
                if prev is not None:
                    assert p <= prev + 1e-12, (lattice, gate_id, db)
                prev = p
    prev = None
    for db in grid:
        p = gkp.gate_error_probability(gates.qrl_cz_plan(lat.db_to_r(db)))
        if prev is not None:
            assert p <= prev + 1e-12
        prev = p

    table = gates.load_basis_table()
    for lattice in ("DBSL", "BSL", "MBSL"):
        dbs = sorted(row["squeezing_db"] for row in table["entries"]
                     if row["lattice"] == lattice and row.get("accepted"))
        assert dbs, f"no cached CZ rows for {lattice}"
        prev = None
        for db in dbs:
            p = gkp.gate_error_probability(gates.cz_plan(lattice, db, table=table))
            single = max(gkp.gate_error_probability(
                gates.basis_for(lattice, g, lat.db_to_r(db))) for g in ("I", "F", "P1"))
            assert p >= single - 1e-12, (lattice, db)
            if prev is not None:
                assert p <= prev + 1e-9, (lattice, db)
            prev = p
    return f"minimum near-zero-squeezing P_err {floor:.4f}"


def _cached_curve(table, lattice, lo=None, hi=None):
    dbs, perrs = [], []
    for row in sorted((r for r in table["entries"]
                       if r["lattice"] == lattice and r.get("accepted")),
                      key=lambda r: r["squeezing_db"]):
        db = row["squeezing_db"]
        if (lo is None or db >= lo - 1e-9) and (hi is None or db <= hi + 1e-9):
            dbs.append(db)
            perrs.append(row["perr"])
    return np.array(dbs), np.array(perrs)


@_report(6, "comparison: MBSL/DBSL 0.70@21dB and 0.83@15dB (+-0.05), BSL/DBSL ~ 1, "
            "QRL advantage 2.5 +- 0.5 dB")
def test_criterion_6_comparisons():
    table = gates.load_basis_table()

    total = len(table["entries"])
    acc = sum(bool(row.get("accepted")) for row in table["entries"])
    assert total > 0 and acc / total >= 0.90, f"{acc}/{total} accepted"

    # cached rows must re-verify through the reference reduction
    rng = np.random.default_rng(0)
    rows = [r for r in table["entries"] if r.get("accepted")]
    for row in (rows[i] for i in rng.choice(len(rows), size=12, replace=False)):
        resid, perr = optimizer.evaluate_free_angles(
            row["lattice"], lat.db_to_r(row["squeezing_db"]), row["angles"])
        assert abs(resid - row["residual"]) < 1e-9
        assert abs(perr - row["perr"]) < 1e-9

    def perr_of(lattice, db):
        return gkp.gate_error_probability(gates.cz_plan(lattice, db, table=table))

    r21 = perr_of("MBSL", 21.0) / perr_of("DBSL", 21.0)
    r15 = perr_of("MBSL", 15.0) / perr_of("DBSL", 15.0)
    assert 0.65 <= r21 <= 0.75, r21
    assert 0.78 <= r15 <= 0.88, r15

    ratios = []
    for db in np.arange(8.0, 21.01, 0.5):
        ratios.append(perr_of("BSL", db) / perr_of("DBSL", db))
    assert min(ratios) >= 0.95 and max(ratios) <= 1.05, (min(ratios), max(ratios))

    dbs_d, perr_d = _cached_curve(table, "DBSL")
    qrl_dbs = np.arange(6.0, 26.01, 0.25)
    perr_q = np.array([gkp.gate_error_probability(gates.qrl_cz_plan(lat.db_to_r(d)))
                       for d in qrl_dbs])
    gaps = []
    for p_star in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        db_d = float(np.interp(math.log(p_star), np.log(perr_d[::-1]), dbs_d[::-1]))
        db_q = float(np.interp(math.log(p_star), np.log(perr_q[::-1]), qrl_dbs[::-1]))
        gaps.append(db_d - db_q)
    assert all(2.0 <= g <= 3.0 for g in gaps), gaps
    return (f"MBSL/DBSL {r15:.3f}@15dB {r21:.3f}@21dB, BSL/DBSL in "
            f"[{min(ratios):.3f},{max(ratios):.3f}], QRL gap "
            f"[{min(gaps):.2f},{max(gaps):.2f}] dB")


@_report(7, "variable theta_c: minimum P_err ratio vs fixed pi/4 in [0.92, 1.0]")
def test_criterion_7_variable_theta_c():
    dbs, _, perr = theta_c_optima()
    fixed = gkp.gate_error_probability(gates.cz_plan("DBSL", dbs, table=gates.load_basis_table()))
    ratios = list(zip(dbs.tolist(), (perr / fixed).tolist()))
    best_db, best = min(ratios, key=lambda t: t[1])
    assert 0.92 <= best <= 1.0 + 1e-9, (best_db, best)
    return f"min ratio {best:.4f} at {best_db:g} dB over {len(ratios)} points"


@_report(8, "Wigner grid oracle: moments to 1e-4 at r in {0.5, 1.5}; t=0 limit")
def test_criterion_8_wigner_grid():
    worst = 0.0
    for lattice in ("DBSL", "BSL", "MBSL"):
        for r in (0.5, 1.5):
            rep = oracle.wigner_limit_check(lattice, r)
            assert rep["pass"], rep
            worst = max(worst, rep["max_rel_dev"])
        rep = oracle.wigner_limit_check(lattice, 1.0, t_override=0.0)
        eps = lat.effective_epsilon(1.0)
        grid = np.array(rep["grid_moments"])
        assert grid[0, 0] == pytest.approx(0.5 / eps, rel=1e-4)
        assert grid[1, 1] == pytest.approx(0.5 * eps, rel=1e-4)
    assert worst < 1e-4
    return f"worst rel dev {worst:.2e}"


@_report(9, "GKP spike propagation examples reproduced exactly")
def test_criterion_9_spike_propagation():
    d = 0.123
    assert np.array_equal(gkp.propagate_spikes(np.eye(2), [0.0, 0.0], d), [d, d])
    f = sp.rotation(math.pi / 2)
    assert np.allclose(gkp.propagate_spikes(f, [0.0, 0.0], d), [d, d], atol=1e-16)
    assert np.allclose(gkp.propagate_spikes(sp.shear(1.0), [0.0, 0.0], d),
                       [d, 2 * d], atol=1e-16)
    assert np.allclose(gkp.propagate_spikes(sp.cz(1.0), [0.0] * 4, d),
                       [d, d, 2 * d, 2 * d], atol=1e-16)
    return "(d,d), (d,2d), (d,d,2d,2d) exact"
