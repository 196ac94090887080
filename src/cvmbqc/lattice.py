"""Local computation-region graphs for the five built-in lattices.

Each region is a small template around one or two computation steps: the
adjacency of controlled-Z edge weights, the partition into input / measured /
output modes, the balanced-beamsplitter mixing pairs of the measurement
devices, and the preset control-mode bases.  Cylinder bookkeeping (temporal
circumference, mode duration) never enters the numerics, only the labels.

A region's angle map (:meth:`ComputationGraph.angle_map`) is the one rule
that turns free angles into a basis at the graph's theta_c: the measured-mode
angle vector that the reduction, the search and the oracle read.

A control-mode device measuring both inputs at equal bases commutes with its
beam splitter up to a recombination of the outcomes, so such devices reduce
to per-mode measurements at the preset basis and are omitted from the mixing
pairs.  The central control pair of a two-wire coupling region is measured
in independent bases and keeps its beam splitter.

An array of squeezings r gives one stacked region: ``r``, ``t``, ``epsilon``
and, if given so, ``theta_c`` are arrays of r's shape and the adjacency has
r's axes in front, which the reduction broadcasts over.  A number is the
batch-free case with plain-float fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LATTICES",
    "LatticeParams",
    "ComputationGraph",
    "db_to_r",
    "per_point",
    "edge_weight",
    "effective_epsilon",
    "teleport_graph",
    "single_step_graph",
    "cz_region_graph",
    "graph_to_dict",
    "graph_to_json",
]

LATTICES = ("TELEPORT", "DBSL", "BSL", "MBSL", "QRL")

DEFAULT_THETA_C = {"DBSL": math.pi / 4, "BSL": math.pi / 4, "MBSL": math.pi / 2}


def db_to_r(db: float) -> float:
    """Squeezing parameter r from squeezing in dB (variance e^{-2r} vs vacuum)."""
    return db * math.log(10.0) / 20.0


def per_point(f, r):
    """``f`` at each point of the squeezing ``r``: f(r) itself for a number,
    and for an array the values in r's shape, with a further last axis when
    f returns several.

    Values that depend on r are computed this way, with math, because
    numpy's tanh, cosh and exp may differ from math's in the last bit.
    """
    if np.ndim(r) == 0:
        return f(r)
    r = np.asarray(r, dtype=float)
    values = np.array([f(x) for x in r.ravel().tolist()])
    return values.reshape(r.shape + values.shape[1:])


def _check_r(r: float) -> None:
    if not 0 <= r < math.inf:  # also refuses NaN
        raise ValueError(f"squeezing parameter r must be finite and nonnegative, got {r!r}")


def effective_epsilon(r: float) -> float:
    """Self-loop magnitude sech(2r); cluster momentum variance is sech(2r)/2."""
    _check_r(r)
    try:
        return 1.0 / math.cosh(2.0 * r)
    except OverflowError:
        raise ValueError(f"squeezing {20.0 * r / math.log(10.0):g} dB (r = {r:g}) is too "
                         "large: cosh(2r) overflows above 3085.56 dB") from None


_EDGE_SCALE = {
    "TELEPORT": lambda r: math.tanh(2.0 * r),
    "DBSL": lambda r: math.tanh(2.0 * r) / 2.0,
    "BSL": lambda r: math.tanh(2.0 * r) / math.sqrt(2.0),
    "MBSL": lambda r: math.tanh(2.0 * r) / math.sqrt(2.0),
    "QRL": lambda r: math.tanh(2.0 * r),
}


def edge_weight(lattice: str, r: float) -> float:
    """Absolute cluster edge weight t at squeezing r for the given lattice."""
    if lattice not in _EDGE_SCALE:
        raise ValueError(f"no built-in edge weight for lattice {lattice!r}")
    _check_r(r)
    return _EDGE_SCALE[lattice](r)


@dataclass(frozen=True)
class LatticeParams:
    """Lattice name with squeezing-derived edge weight and self-loop."""

    lattice: str
    r: float
    t: float
    epsilon: float

    @classmethod
    def from_r(cls, lattice: str, r) -> "LatticeParams":
        """Edge weight and self-loop at squeezing ``r``, a number or an array
        (see :func:`per_point`); the TELEPORT edge weight is tanh(2r)."""
        return cls(lattice, r, per_point(lambda x: edge_weight(lattice, x), r),
                   per_point(effective_epsilon, r))

    @classmethod
    def from_t(cls, t: float, epsilon: float = 1.0) -> "LatticeParams":
        if not 0.0 < t <= 1.0:
            raise ValueError(f"teleportation edge weight must be in (0, 1], got {t}")
        return cls("TELEPORT", float("nan"), t, epsilon)


@dataclass(frozen=True, eq=False)
class ComputationGraph:
    """One gate region: adjacency, mode partition, mixing network, preset bases."""

    lattice: str
    r: float
    t: float
    epsilon: float
    adjacency: np.ndarray
    input_modes: tuple
    measured_modes: tuple
    output_modes: tuple
    mixing_pairs: tuple
    free_modes: tuple
    control_modes: tuple  # (mode, sign) pairs; preset angle is sign * theta_c
    theta_c: float  # an array of r's shape in a region stacked over theta_c
    wire_parity: int
    labels: tuple = ()

    @property
    def n_modes(self) -> int:
        return self.adjacency.shape[-1]

    @property
    def cluster_modes(self) -> tuple:
        inputs = set(self.input_modes)
        return tuple(m for m in range(self.n_modes) if m not in inputs)

    def angle_map(self) -> tuple:
        """``(theta_base, a_map)``: the measured-mode angles, in
        measured_modes order, are theta_base + a_map @ x at the free angles
        x, in free_modes order.  A control mode sits at its sign times the
        graph's theta_c, in theta_base, with theta_c's axes in front."""
        pos = {m: i for i, m in enumerate(self.measured_modes)}
        theta_base = np.zeros(np.shape(self.theta_c) + (len(pos),))
        a_map = np.zeros((len(pos), len(self.free_modes)))
        for i, m in enumerate(self.free_modes):
            a_map[pos[m], i] = 1.0
        for m, sign in self.control_modes:
            theta_base[..., pos[m]] = sign * self.theta_c
        return theta_base, a_map

    def full_basis(self, free_angles) -> np.ndarray:
        """The basis at the free angles of :meth:`angle_map`, each a number or
        an array: the measured-mode angles, with the batch axes in front."""
        theta_base, a_map = self.angle_map()
        if len(free_angles) != a_map.shape[1]:
            raise ValueError(f"expected {a_map.shape[1]} free angles, got {len(free_angles)}")
        x = np.stack(np.broadcast_arrays(*free_angles), axis=-1).astype(float)
        return theta_base + (a_map @ x[..., None])[..., 0]


def _build(lattice, params, parity, theta_c, labels, edges, inputs, outputs,
           mixing, free, controls) -> ComputationGraph:
    n = len(labels)
    unit = np.zeros((n, n))
    for i, j, w in edges:
        unit[i, j] += w
        unit[j, i] += w
    # every weight w is +-1 and no mode pair repeats, so scaling the unit
    # adjacency by t gives exactly w t; + 0.0 turns the -0.0 of a negative
    # edge at t = 0 into 0.0
    adjacency = np.multiply.outer(params.t, unit) + 0.0
    measured = tuple(m for m in range(n) if m not in set(outputs))
    return ComputationGraph(
        lattice=lattice,
        r=params.r,
        t=params.t,
        epsilon=params.epsilon,
        adjacency=adjacency,
        input_modes=tuple(inputs),
        measured_modes=measured,
        output_modes=tuple(outputs),
        mixing_pairs=tuple(mixing),
        free_modes=tuple(free),
        control_modes=tuple(controls),
        theta_c=theta_c,
        wire_parity=parity,
        labels=tuple(labels),
    )


def teleport_graph(t: float, epsilon: float = 1.0) -> ComputationGraph:
    """Generalized teleportation: input 0 mixed with cluster mode 1, edge t to
    output 2; public as the minimal region, which tests reduce in closed form."""
    return single_step_graph(LatticeParams.from_t(t, epsilon))


def _teleport_step(params, parity, theta_c):
    return _build(
        "TELEPORT", params, parity, 0.0,
        labels=("in", "anc", "out"),
        edges=[(1, 2, 1.0)],
        inputs=(0,), outputs=(2,),
        mixing=((0, 1),),
        free=(0, 1), controls=(),
    )


# DBSL: coiled dual-rail wire.  The A rail at temporal j pairs with the B rail
# at j+N.  Around every wire column the edge pattern is identical: A[w]-A[c]
# carries +t and B[w+N]-B[c+N] carries -t for both control columns c = w -+ 1,
# while A[w]-B[c+N] carries +t (left control, c = w-1) or -t (right control)
# and A[c]-B[w+N] the opposite.  The alternating wire sign (-1)^i lives purely
# in the control-mode bases: wire_parity = 1 flips every preset control angle,
# which turns the step distortion S(4 t^2 tan theta_c) into its negative.


def _dbsl_wire_edges(a, b_out, left, right):
    """Edges of one wire column; left/right are the (A[c], B[c+N]) control pairs."""
    edges = []
    for (a_c, b_c), sgn in ((left, 1.0), (right, -1.0)):
        edges += [(a, a_c, 1.0), (a, b_c, sgn), (b_out, b_c, -1.0), (b_out, a_c, -sgn)]
    return edges


def _dbsl_single_step(params, parity, theta_c):
    p = -1.0 if parity % 2 else 1.0
    labels = ("B[k](in)", "A[k]", "A[k-1]", "B[k+N-1]", "A[k+1]", "B[k+N+1]", "B[k+N](out)")
    edges = _dbsl_wire_edges(1, 6, (2, 3), (4, 5))
    controls = ((2, p), (3, p), (4, -p), (5, -p))
    return _build("DBSL", params, parity, theta_c, labels, edges,
                  inputs=(0,), outputs=(6,), mixing=((0, 1),),
                  free=(0, 1), controls=controls)


def _dbsl_cz_region(params, parity, theta_c):
    p = -1.0 if parity % 2 else 1.0
    labels = (
        "B[k-2](in)", "B[k](in)", "A[k-2]", "A[k]",
        "A[k-3]", "B[k+N-3]", "A[k-1]", "B[k+N-1]", "A[k+1]", "B[k+N+1]",
        "B[k+N-2]", "B[k+N]", "A[k+N-2]", "A[k+N]",
        "A[k+N-3]", "B[k+2N-3]", "A[k+N-1]", "B[k+2N-1]", "A[k+N+1]", "B[k+2N+1]",
        "B[k+2N-2](out)", "B[k+2N](out)",
    )
    edges = (
        _dbsl_wire_edges(2, 10, (4, 5), (6, 7))       # wire U, step 1
        + _dbsl_wire_edges(3, 11, (6, 7), (8, 9))     # wire W, step 1
        + _dbsl_wire_edges(12, 20, (14, 15), (16, 17))  # wire U, step 2
        + _dbsl_wire_edges(13, 21, (16, 17), (18, 19))  # wire W, step 2
    )
    controls = ((4, -p), (5, -p), (6, p), (8, -p), (9, -p),
                (14, -p), (15, -p), (17, p), (18, -p), (19, -p))
    # free modes in the published numbering: the (A, B) wire pairs of step 1,
    # the step-2 pairs listed carrier-first (B, A), then both steps' central
    # control modes in between.  Those two centrals share one measurement
    # device, so its beam splitter stays physical; the outer control devices
    # pair with out-of-region modes at equal preset bases and reduce to
    # per-mode measurements.
    free = (2, 0, 3, 1, 10, 12, 16, 7, 11, 13)
    return _build("DBSL", params, parity, theta_c, labels, edges,
                  inputs=(0, 1), outputs=(20, 21),
                  mixing=((0, 2), (1, 3), (10, 12), (11, 13), (7, 16)),
                  free=free, controls=controls)


# BSL: disjoint four-mode square clusters {A[k], B[k], C[k+1], D[k+N]} chained
# through the wire modes D (carrier) and A (partner); control-mode bases
# alternate with the device index and the square edge signs are pinned by
# Eq. (4:BSL_N) together with the single-step gate form.

_BSL_SQUARE = ((0, 1, 1.0), (1, 3, -1.0), (3, 2, 1.0), (2, 0, 1.0))  # A-B, B-D, D-C, C-A


def _bsl_square_edges(a, b, c, d, sign):
    return [(((a, b, c, d)[i]), ((a, b, c, d)[j]), w * sign) for i, j, w in _BSL_SQUARE]


def _bsl_single_step(params, parity, theta_c):
    p = -1.0 if parity % 2 else 1.0
    labels = ("D[k](in)", "A[k]", "B[k]", "C[k+1]", "D[k+N](out)")
    edges = _bsl_square_edges(1, 2, 3, 4, 1.0)
    controls = ((2, -p), (3, p))
    return _build("BSL", params, parity, theta_c, labels, edges,
                  inputs=(0,), outputs=(4,), mixing=((0, 1),),
                  free=(0, 1), controls=controls)


def _bsl_cz_region(params, parity, theta_c):
    p = -1.0 if parity % 2 else 1.0
    labels = (
        "D[k](in)", "D[k+1](in)",
        "A[k]", "B[k]", "C[k+1]", "D[k+N]",
        "A[k+1]", "B[k+1]", "C[k+2]", "D[k+N+1]",
        "A[k+N]", "B[k+N]", "C[k+N+1]",
        "A[k+N+1]", "B[k+N+1]", "C[k+N+2]",
        "D[k+2N](out)", "D[k+2N+1](out)",
    )
    edges = (
        _bsl_square_edges(2, 3, 4, 5, 1.0)        # wire k, step 1
        + _bsl_square_edges(6, 7, 8, 9, 1.0)      # wire k+1, step 1
        + _bsl_square_edges(10, 11, 12, 16, 1.0)  # wire k, step 2
        + _bsl_square_edges(13, 14, 15, 17, 1.0)  # wire k+1, step 2
    )
    # the (B, C) control pairs of devices k+1 and k+N+1 couple the wires and
    # keep their physical beam splitters; outer controls stay preset (devices
    # k, k+2, k+N, k+N+2 all share the same alternation sign)
    controls = ((3, -p), (8, -p), (11, -p), (15, -p))
    free = (0, 2, 1, 6, 4, 7, 5, 10, 9, 13, 12, 14)
    return _build("BSL", params, parity, theta_c, labels, edges,
                  inputs=(0, 1), outputs=(16, 17),
                  mixing=((0, 2), (1, 6), (5, 10), (9, 13), (7, 4), (14, 12)),
                  free=free, controls=controls)


# MBSL: "butterfly" clusters {D[k], A[k], B[k+1], C[k+N]} with a direct wire
# edge D-C plus the three-edge path D-B-A-C through the two control modes;
# the weights are pinned by the theta_c = 0 and pi/2 noise matrices.  No
# temporal sign alternation anywhere.

_MBSL_BUTTERFLY = ((0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0), (0, 2, -1.0))  # D-C, A-B, A-C, D-B


def _mbsl_butterfly_edges(d, a, b, c):
    return [(((d, a, b, c)[i]), ((d, a, b, c)[j]), w) for i, j, w in _MBSL_BUTTERFLY]


def _mbsl_single_step(params, parity, theta_c):
    labels = ("C[k](in)", "D[k]", "A[k]", "B[k+1]", "C[k+N](out)")
    edges = _mbsl_butterfly_edges(1, 2, 3, 4)
    controls = ((2, 1.0), (3, 1.0))
    return _build("MBSL", params, parity, theta_c, labels, edges,
                  inputs=(0,), outputs=(4,), mixing=((0, 1),),
                  free=(0, 1), controls=controls)


def _mbsl_cz_region(params, parity, theta_c):
    labels = (
        "C[k-1](in)", "C[k](in)",
        "D[k-1]", "A[k-1]", "B[k]", "C[k+N-1]",
        "D[k]", "A[k]", "B[k+1]", "C[k+N]",
        "D[k+N-1]", "A[k+N-1]", "B[k+N]",
        "D[k+N]", "A[k+N]", "B[k+N+1]",
        "C[k+2N-1](out)", "C[k+2N](out)",
    )
    edges = (
        _mbsl_butterfly_edges(2, 3, 4, 5)       # wire k-1, step 1
        + _mbsl_butterfly_edges(6, 7, 8, 9)     # wire k, step 1
        + _mbsl_butterfly_edges(10, 11, 12, 16)  # wire k-1, step 2
        + _mbsl_butterfly_edges(13, 14, 15, 17)  # wire k, step 2
    )
    # devices k and k+N measure the coupling pairs (A, B); their beam
    # splitters stay physical, the outer controls keep the preset basis
    controls = ((3, 1.0), (8, 1.0), (11, 1.0), (15, 1.0))
    free = (0, 2, 1, 6, 7, 4, 5, 10, 9, 13, 14, 12)
    return _build("MBSL", params, parity, theta_c, labels, edges,
                  inputs=(0, 1), outputs=(16, 17),
                  mixing=((0, 2), (1, 6), (5, 10), (9, 13), (7, 4), (14, 12)),
                  free=free, controls=controls)


# QRL: two-mode entangled pairs connect each macronode's A and D modes to the
# next computation sites; the measurement device mixes the macronode's four
# modes (slot order C, B, A, D) with four balanced beam splitters.  Pairing,
# network ordering, and output order are pinned jointly by Eq. (4:U), the QRL
# N matrix, and the published single-step Fourier-CZ basis.

_QRL_PAIR_WEIGHT = 1.0
_QRL_MIXING = ((0, 2), (1, 3), (0, 1), (3, 2))  # BS(C,A), BS(B,D); BS(C,B), BS(D,A)


def _qrl_device_mixing(slots):
    """Beam splitters of one measurement device; slots = (C, B, A, D) modes."""
    return [(slots[i], slots[j]) for i, j in _QRL_MIXING]


def _qrl_single_step(params, parity, theta_c):
    labels = ("C[k](in1)", "B[k](in2)", "A[k]", "D[k]", "C[k+N](out1)", "B[k+1](out2)")
    edges = ((2, 4, _QRL_PAIR_WEIGHT), (3, 5, _QRL_PAIR_WEIGHT))
    return _build("QRL", params, parity, 0.0, labels, edges,
                  inputs=(0, 1), outputs=(4, 5),
                  mixing=tuple(_qrl_device_mixing((0, 1, 2, 3))),
                  free=(0, 1, 2, 3), controls=())


def _qrl_cz_region(params, parity, theta_c):
    """Coupling step at device k plus one compensation step on each output path.

    The coupling basis redirects the computation modes (in1 arrives at the
    B-rail output, in2 at the C-rail output); each arrival is compensated in
    the next device it meets, with the unused device slot fed by a dummy
    input whose path is ignored.
    """
    labels = (
        "C[k](in1)", "B[k](in2)", "C[k+1](in,dummy)", "B[k+N](in,dummy)",
        "A[k]", "D[k]", "B[k+1]", "C[k+N]",
        "A[k+1]", "D[k+1]", "A[k+N]", "D[k+N]",
        "B[k+2](out)", "C[k+2N](out)", "C[k+N+1](out,dummy)", "B[k+N+1](out,dummy)",
    )
    w = _QRL_PAIR_WEIGHT
    edges = (
        (4, 7, w), (5, 6, w),     # device k pairs: A[k]-C[k+N], D[k]-B[k+1]
        (8, 14, w), (9, 12, w),   # device k+1: A[k+1]-C[k+N+1], D[k+1]-B[k+2]
        (10, 13, w), (11, 15, w),  # device k+N: A[k+N]-C[k+2N], D[k+N]-B[k+N+1]
    )
    mixing = (_qrl_device_mixing((0, 1, 4, 5))       # device k
              + _qrl_device_mixing((2, 6, 8, 9))     # device k+1
              + _qrl_device_mixing((7, 3, 10, 11)))  # device k+N
    free = (0, 1, 4, 5, 2, 6, 8, 9, 7, 3, 10, 11)
    return _build("QRL", params, parity, 0.0, labels, edges,
                  inputs=(0, 1, 2, 3), outputs=(12, 13, 14, 15),
                  mixing=tuple(mixing), free=free, controls=())


_SINGLE_STEP = {"TELEPORT": _teleport_step, "DBSL": _dbsl_single_step,
                "BSL": _bsl_single_step, "MBSL": _mbsl_single_step, "QRL": _qrl_single_step}
_CZ_REGION = {"DBSL": _dbsl_cz_region, "BSL": _bsl_cz_region,
              "MBSL": _mbsl_cz_region, "QRL": _qrl_cz_region}


def _region_graph(builders, params, parity, theta_c) -> ComputationGraph:
    if params.lattice not in builders:
        raise ValueError(f"unsupported lattice {params.lattice!r}")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    tc = DEFAULT_THETA_C.get(params.lattice, 0.0) if theta_c is None else theta_c
    return builders[params.lattice](params, parity, tc)


def single_step_graph(params: LatticeParams, parity: int = 0, theta_c=None) -> ComputationGraph:
    """Minimal graph for one single-mode computation step."""
    return _region_graph(_SINGLE_STEP, params, parity, theta_c)


def cz_region_graph(params: LatticeParams, parity: int = 0, theta_c=None) -> ComputationGraph:
    """Two-computation-step region coupling two neighbouring wires."""
    return _region_graph(_CZ_REGION, params, parity, theta_c)


def graph_to_dict(graph: ComputationGraph) -> dict:
    return {
        "lattice": graph.lattice,
        "r": graph.r,
        "t": graph.t,
        "epsilon": graph.epsilon,
        "adjacency": graph.adjacency.tolist(),
        "input_modes": list(graph.input_modes),
        "measured_modes": list(graph.measured_modes),
        "output_modes": list(graph.output_modes),
        "mixing_pairs": [list(p) for p in graph.mixing_pairs],
        "free_modes": list(graph.free_modes),
        "control_modes": [[m, s] for m, s in graph.control_modes],
        "theta_c": graph.theta_c,
        "parity": graph.wire_parity,
        "labels": list(graph.labels),
    }


def graph_to_json(graph: ComputationGraph, **kwargs) -> str:
    return json.dumps(graph_to_dict(graph), **kwargs)
