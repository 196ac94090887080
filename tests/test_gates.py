import math
import re
import sys
import threading

import numpy as np
import pytest

from cvmbqc import gates, gkp, oracle
from cvmbqc import lattice as lat
from cvmbqc import reduction as red
from cvmbqc import symplectic as sp
from cvmbqc.errors import CacheMissError, MeasurementDegenerateError
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


@pytest.mark.parametrize("gate_id, signs", [("I", (1, 1)), ("F", (1, 1)), ("P1", (1, 1)),
                                            ("FFCZ", (1, -1)), ("SWAP", (1, 1))])
def test_target_symplectic_is_one_read_only_array(gate_id, signs):
    # built once per (gate_id, signs) and shared, so no caller may write to it
    x = gates.target_symplectic(gate_id, signs)
    assert gates.target_symplectic(gate_id, signs) is x
    with pytest.raises(ValueError, match="read-only"):
        x[0, 0] = 2.0


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
    with pytest.raises(ValueError, match="must be positive"):
        gates.basis_for("DBSL", "I", np.array([0.5, 0.0, 1.0]))


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
        assert np.array_equal(p1.steps[0].angles, p2.steps[0].angles)

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
            {"lattice": "DBSL", "squeezing_db": 3.0, "angles": [0.0] * 10},
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

    def test_infeasible_entry_is_refused(self, tmp_path):
        # the loader allows no row marked unaccepted, so no plan is built from one
        table = self._table()
        table["entries"][1]["accepted"] = False
        gates.save_basis_table(table, tmp_path / "table.json")
        with pytest.raises(ValueError, match=re.escape(f"basis table {tmp_path / 'table.json'}: "
                                                       "entry 1 is not a ")):
            gates.load_basis_table(tmp_path / "table.json")

    @pytest.mark.parametrize("apart, refused", [(0.0, True), (9e-10, True), (1.1e-9, False)])
    def test_one_row_per_point(self, tmp_path, apart, refused):
        # two rows closer than the row identity's 1e-9 dB are refused, named
        # by their entry indices however far apart they sit in the table
        table = self._table()
        table["entries"].append(dict(table["entries"][0], squeezing_db=60.0 + apart))
        path = gates.save_basis_table(table, tmp_path / "table.json")
        if refused:
            with pytest.raises(ValueError, match="entries 0 and 2 are two DBSL rows at 60 dB$"):
                gates.load_basis_table(path)
        else:
            assert gates.load_basis_table(path) == table
        assert gates.find_row(table, "DBSL", 3.0) is table["entries"][1]

    def test_miss_names_the_command_that_fills_it(self):
        with pytest.raises(CacheMissError, match=r"`cvmbqc optimize --lattice DBSL --db-min 12 "
                           r"--db-max 12 --out DIR/cz_basis_table.json`, then set "
                           r"CVMBQC_CACHE_DIR=DIR$"):
            gates.cz_plan("DBSL", 12.0, table=self._table())

    def test_missing_table_names_the_command_that_builds_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CVMBQC_CACHE_DIR", str(tmp_path))
        with pytest.raises(CacheMissError, match=r"`cvmbqc optimize --lattice DBSL BSL MBSL "
                           r"--db-min <a> --db-max <b> --out DIR/cz_basis_table.json`, then "
                           r"set CVMBQC_CACHE_DIR=DIR$"):
            gates.load_basis_table()

    def test_qrl_cz_plan_needs_no_cache(self):
        plan = gates.cz_plan("QRL", 14.0, table={"version": 1, "entries": []})
        assert plan.gate_id == "FFCZ"

    def test_unwritable_table_path_names_the_table(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = blocker / "table.json"  # its parent is not a directory
        with pytest.raises(ValueError, match="^" + re.escape(f"cannot save basis table {path}: ")):
            gates.save_basis_table(self._table(), path)

    def test_failed_save_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "table.json"
        path.mkdir()  # the replace fails on a directory
        with pytest.raises(ValueError, match="^" + re.escape(f"cannot save basis table {path}: ")):
            gates.save_basis_table(self._table(), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]

    def test_concurrent_saves_leave_one_whole_table(self, tmp_path):
        # two writers save different tables to one path while a reader reads
        # it: each read is one whole table, and no temporary file is left
        path = tmp_path / "table.json"
        tables = [self._table(), {"version": 1, "entries": self._table()["entries"][1:]}]
        gates.save_basis_table(tables[0], path)
        done, seen, errors = threading.Event(), [], []

        def writer(table):
            try:
                for _ in range(200):
                    gates.save_basis_table(table, path)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        def reader():
            while not done.is_set():
                seen.append(gates.load_basis_table(path))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,)) for t in tables]
            watcher = threading.Thread(target=reader)
            for t in threads + [watcher]:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            watcher.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and seen
        assert all(table in tables for table in seen)
        assert gates.load_basis_table(path) in tables
        assert [p.name for p in tmp_path.iterdir()] == ["table.json"]


def test_dbsl_cz_angles_are_a_root_at_every_theta_c():
    # at the rounding floor of the elimination: |G - T|_1 reaches 4.3e-8 at
    # 0.25 dB next to theta_c = 0 and pi, and stays below 1e-12 over most
    # of the scan; a stacked plan over (r, theta_c)
    r = lat.db_to_r(np.array([0.25, 1.0, 5.0, 15.0, 25.0, 30.0]))
    r, theta_c = np.broadcast_arrays(r[:, None], (np.arange(64) + 0.5) * math.pi / 64)
    plan = gates.dbsl_cz_plan(r, theta_c)
    resid = np.abs(gates.realize(plan).G - plan.target).sum(axis=(-2, -1))
    assert resid.shape == (6, 64) and resid.max() < 1e-7
    assert np.median(resid) < 1e-12


# Each closed form, and the highest squeezing up to which the lattice's
# shipped rows are it: above 24.1 dB the MBSL closed form is a saddle.
CLOSED_FORMS = {"DBSL": (gates.dbsl_cz_angles, 25.0), "MBSL": (gates.mbsl_cz_angles, 24.0)}


@pytest.mark.parametrize("lattice", list(CLOSED_FORMS))
def test_shipped_rows_are_the_closed_form(lattice):
    # every fixed-basis row up to the closed form's last squeezing is the
    # closed form (the DBSL's at pi/4): the angles mod pi to 1e-8 and perr to
    # 1e-12 relative; and the closed-form plan passes the oracle at each point
    closed_form, db_max = CLOSED_FORMS[lattice]
    rows = [row for row in gates.load_basis_table()["entries"]
            if row["lattice"] == lattice and row["squeezing_db"] <= db_max]
    dbs = np.array([row["squeezing_db"] for row in rows])
    assert dbs.tolist() == (0.25 * np.arange(1, 4 * db_max + 1)).tolist()
    r = lat.db_to_r(dbs)
    closed = np.stack(np.broadcast_arrays(*closed_form(r)), axis=-1)
    turn = (np.array([row["angles"] for row in rows]) - closed + np.pi / 2) % np.pi - np.pi / 2
    assert np.abs(turn).max() <= 1e-8
    perr = gkp.gate_error_probability(gates.cz_region_plan(lattice, r, closed_form(r)))
    np.testing.assert_allclose(perr, [row["perr"] for row in rows], rtol=1e-12, atol=0)
    for x in r:
        plan = gates.cz_region_plan(lattice, x, closed_form(x))
        assert oracle.verify_plan(plan, tol=1e-9)["pass"], x


def test_mbsl_cz_angles_are_a_root_off_the_grid():
    r = lat.db_to_r(np.array([0.05, 7.77, 30.0, 40.0]))
    plan = gates.cz_region_plan("MBSL", r, gates.mbsl_cz_angles(r))
    resid = np.abs(gates.realize(plan).G - plan.target).sum(axis=(-2, -1))
    assert resid.max() <= 1e-11


def test_iter_catalog_contents():
    plans = list(gates.iter_catalog(1.0))
    kinds = {(p.lattice, p.gate_id) for p in plans}
    assert ("DBSL", "I") in kinds and ("QRL", "FFCZ") in kinds and ("DBSL", "SWAP") in kinds
    assert len(plans) == 14


# 32 points: blocks of 25 + 7, of 7 with a ragged 4 last, and of 1
STACK_GRID = [0.25 + 0.75 * i for i in range(32)]
STACK_FAMILIES = ([(lattice, g) for lattice in ("DBSL", "BSL", "MBSL", "QRL")
                   for g in gates.SINGLE_MODE_GATES]
                  + [("QRL", "FFCZ"), ("DBSL", "SWAP"), ("MBSL", "FFCZ")])


def _random_cz_table(path, lattice, dbs, seed, bend=None):
    """A basis table at ``path`` with random free angles at every point of
    ``dbs``; ``bend(db, angles)`` may edit a row's angles in place."""
    rng = np.random.default_rng(seed)
    n = len(gates.cz_region(lattice, 1.0)[0].free_modes)
    entries = []
    for db in dbs:
        angles = rng.uniform(-math.pi, math.pi, n)
        if bend is not None:
            bend(db, angles)
        entries.append({"lattice": lattice, "squeezing_db": db, "angles": angles.tolist(),
                        "accepted": True})
    gates.save_basis_table({"version": 1, "entries": entries}, path)
    return gates.load_basis_table(path)


def _family_plan(lattice, gate_id, db, table):
    r = lat.db_to_r(db)
    if gate_id == "FFCZ":
        return gates.cz_plan(lattice, db, table=table)
    if gate_id == "SWAP":
        return gates.dbsl_swap_plan(r)
    return gates.basis_for(lattice, gate_id, r)


@pytest.mark.parametrize("lattice, gate_id", STACK_FAMILIES)
def test_stacked_plans_realize_bit_for_bit_as_single_points(tmp_path, lattice, gate_id):
    # the MBSL FFCZ plans come from a table on disk, the rest are closed-form
    table = _random_cz_table(tmp_path / "table.json", "MBSL", STACK_GRID, seed=3)
    plans = [_family_plan(lattice, gate_id, db, table) for db in STACK_GRID]
    singles = [gates.realize(plan) for plan in plans]
    perrs = [gkp.gate_error_probability(plan) for plan in plans]
    for size in (1, 7, 25):
        for start in range(0, len(plans), size):
            stacked = _family_plan(lattice, gate_id, np.array(STACK_GRID[start:start + size]),
                                   table)
            res = gates.realize(stacked)
            perr = gkp.gate_error_probability(stacked)
            assert perr.shape == (len(stacked.r),)
            for i, single in enumerate(singles[start:start + size]):
                for name in ("G", "N", "D"):
                    assert np.array_equal(getattr(res, name)[i], getattr(single, name)), name
                assert perr[i] == perrs[start + i]


@pytest.mark.parametrize("d", [0.0, 3e-12])
def test_one_degenerate_point_fails_its_stack_as_it_fails_alone(tmp_path, d):
    from cvmbqc import _kernels, optimizer

    def bend(db, angles):
        if db == 11.0:
            # free angles 0 and 1 measure the two outputs of one DBSL beam
            # splitter: at equal angles their measured rows are parallel
            angles[1] = angles[0] + d

    dbs = [10.0, 10.5, 11.0, 11.5, 12.0]
    table = _random_cz_table(tmp_path / "table.json", "DBSL", dbs, seed=5, bend=bend)
    plans = [gates.cz_plan("DBSL", db, table=table) for db in dbs]
    step = plans[2].steps[0]
    with pytest.raises(MeasurementDegenerateError):
        reduce(step.graph, step.angles)
    frozen = optimizer._region("DBSL", lat.db_to_r(11.0))
    assert frozen.metrics(gates.find_row(table, "DBSL", 11.0)["angles"])[0] == _kernels.BAD_VALUE
    with pytest.raises(MeasurementDegenerateError):
        gates.realize(gates.cz_plan("DBSL", np.array(dbs), table=table))
    with pytest.raises(MeasurementDegenerateError):
        gkp.gate_error_probability(gates.cz_plan("DBSL", np.array(dbs), table=table))
    others = np.array(dbs[:2] + dbs[3:])
    gates.realize(gates.cz_plan("DBSL", others, table=table))  # the healthy points reduce


def test_healthy_reductions_run_no_svd(tmp_path, monkeypatch):
    # eliminate accepts every basis of the default curve grid by its
    # Frobenius bound, so realizing the curve commands' 25-point blocks runs
    # no SVD; only a rejected basis pays one, for the rcond in its message
    calls = []
    svd_rcond = red._rcond

    def counted(u):
        calls.append(u.shape)
        return svd_rcond(u)

    monkeypatch.setattr(red, "_rcond", counted)
    grid = [0.25 * i for i in range(1, 101)]
    table = _random_cz_table(tmp_path / "table.json", "MBSL", grid, seed=3)
    for lattice, gate_id in STACK_FAMILIES:
        for start in range(0, len(grid), 25):
            gates.realize(_family_plan(lattice, gate_id, np.array(grid[start:start + 25]),
                                       table))
    assert calls == []
    graph = lat.teleport_graph(0.8)
    with pytest.raises(MeasurementDegenerateError, match="rcond="):
        reduce(graph, [0.3, 0.3])
    assert calls
