import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from cvmbqc import lattice as lat


def test_edge_weights_match_lattice_scalings():
    r = 0.7
    th = math.tanh(2 * r)
    assert lat.edge_weight("DBSL", r) == pytest.approx(th / 2, rel=1e-15)
    assert lat.edge_weight("BSL", r) == pytest.approx(th / math.sqrt(2), rel=1e-15)
    assert lat.edge_weight("MBSL", r) == pytest.approx(th / math.sqrt(2), rel=1e-15)
    assert lat.edge_weight("QRL", r) == pytest.approx(th, rel=1e-15)


def test_edge_weight_infinite_squeezing_limits():
    r = 12.0
    assert lat.edge_weight("DBSL", r) == pytest.approx(0.5, abs=1e-9)
    assert lat.edge_weight("BSL", r) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert lat.edge_weight("QRL", r) == pytest.approx(1.0, abs=1e-9)


def test_effective_epsilon():
    assert lat.effective_epsilon(0.0) == 1.0
    assert lat.effective_epsilon(5.0) < 1e-4
    with pytest.raises(ValueError):
        lat.effective_epsilon(-0.1)
    # 15 dB resource: sech(2r) with e^{-2r} = 10^-1.5
    r = lat.db_to_r(15.0)
    e = math.exp(-2 * r)
    assert e == pytest.approx(10 ** -1.5, rel=1e-12)
    assert lat.effective_epsilon(r) == pytest.approx(2 * e / (1 + e * e), rel=1e-12)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -0.1])
def test_squeezing_must_be_finite_and_nonnegative(r):
    message = f"squeezing parameter r must be finite and nonnegative, got {r!r}"
    with pytest.raises(ValueError, match=message):
        lat.effective_epsilon(r)
    for name in ("DBSL", "BSL", "MBSL", "QRL"):
        with pytest.raises(ValueError, match=message):
            lat.edge_weight(name, r)


def test_squeezing_is_refused_where_cosh_overflows():
    assert lat.effective_epsilon(lat.db_to_r(3085.55)) > 0
    with pytest.raises(ValueError, match=r"3085.57 dB .* cosh\(2r\) overflows above 3085.56 dB"):
        lat.effective_epsilon(lat.db_to_r(3085.57))


def test_effective_epsilon_is_3db_above_resource_at_high_squeezing():
    r = lat.db_to_r(20.0)
    gap_db = 10 * math.log10(lat.effective_epsilon(r) / math.exp(-2 * r))
    assert gap_db == pytest.approx(10 * math.log10(2.0), abs=0.01)


def test_teleport_graph_shape():
    g = lat.teleport_graph(0.8)
    assert g.n_modes == 3
    assert g.input_modes == (0,)
    assert g.output_modes == (2,)
    assert g.mixing_pairs == ((0, 1),)
    assert g.adjacency[1, 2] == pytest.approx(0.8)
    assert g.adjacency[0, 1] == 0.0


def test_teleport_edge_weight_range():
    with pytest.raises(ValueError):
        lat.teleport_graph(0.0)
    with pytest.raises(ValueError):
        lat.teleport_graph(1.2)


def test_dbsl_single_step_matches_published_adjacency():
    r = 0.8
    params = lat.LatticeParams.from_r("DBSL", r)
    g = lat.single_step_graph(params, parity=0)
    t = params.t
    # row 6 / column 2 of the displayed matrix disagree in sign; a CZ graph is
    # symmetric and the single-step noise matrix pins the -t choice
    a = np.array([
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, t, t, t, -t, 0],
        [0, t, 0, 0, 0, 0, -t],
        [0, t, 0, 0, 0, 0, -t],
        [0, t, 0, 0, 0, 0, t],
        [0, -t, 0, 0, 0, 0, -t],
        [0, 0, -t, -t, t, -t, 0],
    ])
    assert np.allclose(g.adjacency, a, atol=1e-15)
    assert g.input_modes == (0,)
    assert g.output_modes == (6,)
    assert len([m for m, _ in g.control_modes]) == 4


def test_dbsl_control_basis_pattern():
    params = lat.LatticeParams.from_r("DBSL", 0.8)
    q = math.pi / 4
    for parity, p in ((0, 1.0), (1, -1.0)):
        g = lat.single_step_graph(params, parity=parity)
        assert g.measured_modes == (0, 1, 2, 3, 4, 5)
        assert g.full_basis([0.1, 0.2]).tolist() == [0.1, 0.2, p * q, p * q, -p * q, -p * q]


def test_zero_squeezing_graph_has_zero_edges():
    params = lat.LatticeParams.from_r("DBSL", 0.0)
    g = lat.single_step_graph(params, parity=0)
    assert np.allclose(g.adjacency, 0.0)
    assert g.epsilon == 1.0


@pytest.mark.parametrize("lattice", lat.LATTICES)
def test_stacked_graphs_equal_per_point_graphs(lattice):
    rs = np.array([0.0, 0.4, 1.7])
    builds = (lat.single_step_graph,) if lattice == "TELEPORT" else (
        lat.single_step_graph, lat.cz_region_graph)
    for build, parity in itertools.product(builds, (0, 1)):
        stacked = build(lat.LatticeParams.from_r(lattice, rs), parity=parity)
        for i, r in enumerate(rs.tolist()):
            single = build(lat.LatticeParams.from_r(lattice, r), parity=parity)
            for f in dataclasses.fields(single):
                a, b = getattr(stacked, f.name), getattr(single, f.name)
                if f.name in ("r", "t", "epsilon", "adjacency"):
                    a = a[i]
                    assert np.array_equal(np.signbit(a), np.signbit(b)), f.name
                assert np.array_equal(a, b), f.name
        # a negative edge at t = 0 is 0.0, not -0.0
        assert not np.signbit(stacked.adjacency[0]).any()
    with pytest.raises(ValueError, match="finite and nonnegative"):
        lat.LatticeParams.from_r(lattice, np.array([0.4, -0.1]))


@pytest.mark.parametrize("lattice,n_step,n_cz", [
    ("DBSL", 7, 22), ("BSL", 5, 18), ("MBSL", 5, 18), ("QRL", 6, 16),
])
def test_region_shapes(lattice, n_step, n_cz):
    params = lat.LatticeParams.from_r(lattice, 1.0)
    g = lat.single_step_graph(params)
    assert g.n_modes == n_step
    cz = lat.cz_region_graph(params)
    assert cz.n_modes == n_cz
    for graph in (g, cz):
        assert np.allclose(graph.adjacency, graph.adjacency.T)
        assert np.allclose(np.diag(graph.adjacency), 0.0)
        modes = set(graph.input_modes) | set(graph.output_modes)
        assert set(graph.measured_modes) == set(range(graph.n_modes)) - set(graph.output_modes)
        assert not set(graph.input_modes) & set(graph.output_modes)
        for i, j in graph.mixing_pairs:
            assert 0 <= i < graph.n_modes and 0 <= j < graph.n_modes and i != j
        for m in graph.free_modes:
            assert m in graph.measured_modes
        for m, _ in graph.control_modes:
            assert m in graph.measured_modes


def test_unsupported_lattice_rejected():
    params = lat.LatticeParams.from_r("DBSL", 1.0)
    bad = lat.LatticeParams("SL", 1.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        lat.single_step_graph(bad)
    with pytest.raises(ValueError):
        lat.cz_region_graph(bad)
    with pytest.raises(ValueError):
        lat.single_step_graph(params, parity=2)


def test_dbsl_cz_region_partition():
    params = lat.LatticeParams.from_r("DBSL", 1.0)
    g = lat.cz_region_graph(params)
    assert len(g.input_modes) == 2
    assert len(g.output_modes) == 2
    assert len(g.free_modes) == 10
    assert len(g.measured_modes) == 20
    assert len(g.control_modes) == 10


def test_graph_json_roundtrip():
    params = lat.LatticeParams.from_r("MBSL", 1.2)
    g = lat.cz_region_graph(params)
    d = json.loads(lat.graph_to_json(g))
    assert d["lattice"] == "MBSL"
    assert d["parity"] == 0
    assert np.allclose(np.array(d["adjacency"]), g.adjacency)
    assert d["mixing_pairs"] == [list(p) for p in g.mixing_pairs]


def test_full_basis_requires_all_free_angles():
    params = lat.LatticeParams.from_r("BSL", 1.0)
    g = lat.single_step_graph(params)
    with pytest.raises(ValueError):
        g.full_basis([0.1])
    basis = g.full_basis([0.1, 0.2])
    assert basis.shape == (len(g.measured_modes),)
