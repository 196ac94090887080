"""Span tracer for the benchmark's traced runs.

The tracer wraps package functions from outside the package: each wrapped
call records a span ``[name, start, end, parent, note]`` in memory, and the
spans are written out when the process ends.  A layer's self time is its
span's duration minus the durations of its child spans.

A hook whose module or function no longer exists is recorded as absent, and
the per-layer metrics that depend on it are left out of the result instead
of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Gate residual below which a scored start counts as accepted; the same
# |G - T|_1 < 1e-5 rule the optimizer and the basis table use.
ACCEPT_RESIDUAL = 1e-5


# (module, attribute path, span name, flag noted from the return value:
# "degenerate" for an evaluation that returned the degenerate value,
# "accepted" for a scored start under the residual tolerance)
HOOKS = (
    ("cvmbqc.lattice", "single_step_graph", "lattice.graph", None),
    ("cvmbqc.lattice", "cz_region_graph", "lattice.graph", None),
    ("cvmbqc.reduction", "reduce", "reduction.reduce", None),
    ("cvmbqc.gates", "realize", "gates.realize", None),
    ("cvmbqc.gates", "load_basis_table", "gates.table_io", None),
    ("cvmbqc.gates", "save_basis_table", "gates.table_io", None),
    ("cvmbqc.gkp", "gate_error_probability", "gkp.perr", None),
    ("cvmbqc.gkp", "error_probability", "gkp.perr", None),
    ("cvmbqc._kernels", "reduce_metrics", "_kernels.eval", "degenerate"),
    ("cvmbqc._kernels", "nelder_mead", "_kernels.descent", None),
    ("cvmbqc.optimizer", "freeze_region", "optimizer.freeze", None),
    ("cvmbqc.optimizer", "FrozenRegion.metrics", "optimizer.score", "accepted"),
    ("cvmbqc.optimizer", "search", "optimizer.search", None),
    ("cvmbqc.optimizer", "evaluate_free_angles", "optimizer.crosscheck", None),
)

# Per-layer metric -> (unit, span names it needs).
LAYER_METRICS = {
    "lattice.graph_s": ("s", ("lattice.graph",)),
    "reduction.reduce_calls": ("count", ("reduction.reduce",)),
    "reduction.reduce_s": ("s", ("reduction.reduce",)),
    "reduction.reduce_us": ("us/call", ("reduction.reduce",)),
    "reduction.degenerate": ("count", ("reduction.reduce",)),
    "gates.realize_self_s": ("s", ("gates.realize",)),
    "gates.table_io_s": ("s", ("gates.table_io",)),
    "gkp.perr_calls": ("count", ("gkp.perr",)),
    "gkp.perr_s": ("s", ("gkp.perr",)),
    "kernels.evals": ("count", ("_kernels.eval",)),
    "kernels.eval_us": ("us/eval", ("_kernels.eval", "_kernels.descent")),
    "kernels.degenerate_evals": ("count", ("_kernels.eval",)),
    "kernels.descents": ("count", ("_kernels.descent",)),
    "kernels.evals_per_descent": ("count", ("_kernels.eval", "_kernels.descent")),
    "kernels.descent_s": ("s", ("_kernels.descent",)),
    "optimizer.freeze_s": ("s", ("optimizer.freeze",)),
    "optimizer.starts_scored": ("count", ("optimizer.score", "optimizer.search")),
    "optimizer.starts_accepted": ("count", ("optimizer.score", "optimizer.search")),
    "optimizer.search_self_s": ("s", ("optimizer.search",)),
    "optimizer.crosscheck_s": ("s", ("optimizer.crosscheck",)),
}


def _flag(kind, owner):
    """The function that reads a hook's flag from its return value."""
    if kind == "degenerate":
        bad = getattr(owner, "BAD_VALUE", 1e12)
        return lambda out: bool(out[0] >= bad)
    if kind == "accepted":
        return lambda out: bool(out[0] < ACCEPT_RESIDUAL)
    return None


class Tracer:
    """Records spans around the hooked package functions."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every hook, wherever the package holds a reference to it."""
        installed = set()
        for module_name, path, name, note in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self.wrap(name, original, _flag(note, owner))
            setattr(owner, attr, wrapped)
            installed.add(name)
            if parents:
                continue
            # modules that imported the function by name hold their own reference
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cvmbqc" or mod_name.startswith("cvmbqc.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        # a span name is present if any of its hooks was installed
        self.absent = {name for _, _, name, _ in HOOKS} - installed

    def write(self, path, extra=None):
        """Write the spans as tab-separated lines: name, start, end, parent, note."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": sorted(self.absent), **(extra or {})}) + "\n")
            for name, start, end, parent, note in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{note}\n")


def read_spans(path):
    """Inverse of :meth:`Tracer.write`: (header dict, span list)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = []
        for line in fh:
            name, start, end, parent, note = line.rstrip("\n").split("\t")
            spans.append([name, float(start), float(end), int(parent), note])
    return header, spans


def layer_sums(spans):
    """Raw per-layer sums of one process's spans; sums from several processes
    and rounds add up key by key."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        pname = spans[parent][0] if parent >= 0 else None
        add(name + ":calls", 1)
        add(name + ":s", dur)
        add(name + ":self_s", dur - child[i])
        if note in (True, "True"):
            add(name + ":flagged", 1)
        if name == "reduction.reduce" and note == "MeasurementDegenerateError":
            add("reduction.reduce:degenerate", 1)
        if name == "_kernels.eval" and pname == "_kernels.descent":
            add("_kernels.eval:in_descent", 1)
        if name == "optimizer.score" and pname == "optimizer.search":
            add("optimizer.score:from_search", 1)
            if note in (True, "True"):
                add("optimizer.score:accepted_from_search", 1)
        if name == "gkp.perr" and pname != "gkp.perr":
            add("gkp.perr:outer", 1)
    return out


def layer_metrics(sums, rounds, absent=()):
    """Per-round per-layer metrics from summed raw sums; metrics whose hooks
    are absent are left out."""
    def g(key):
        return sums.get(key, 0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "lattice.graph_s": g("lattice.graph:s"),
        "reduction.reduce_calls": g("reduction.reduce:calls"),
        "reduction.reduce_s": g("reduction.reduce:s"),
        "reduction.reduce_us": 1e6 * ratio(g("reduction.reduce:s"), g("reduction.reduce:calls")),
        "reduction.degenerate": g("reduction.reduce:degenerate"),
        "gates.realize_self_s": g("gates.realize:self_s"),
        "gates.table_io_s": g("gates.table_io:s"),
        "gkp.perr_calls": g("gkp.perr:outer"),
        "gkp.perr_s": g("gkp.perr:self_s"),
        "kernels.evals": g("_kernels.eval:calls"),
        "kernels.eval_us": 1e6 * ratio(g("_kernels.descent:s"), g("_kernels.eval:in_descent")),
        "kernels.degenerate_evals": g("_kernels.eval:flagged"),
        "kernels.descents": g("_kernels.descent:calls"),
        "kernels.evals_per_descent": ratio(g("_kernels.eval:in_descent"), g("_kernels.descent:calls")),
        "kernels.descent_s": g("_kernels.descent:s"),
        "optimizer.freeze_s": g("optimizer.freeze:s"),
        "optimizer.starts_scored": g("optimizer.score:from_search"),
        "optimizer.starts_accepted": g("optimizer.score:accepted_from_search"),
        "optimizer.search_self_s": g("optimizer.search:self_s"),
        "optimizer.crosscheck_s": g("optimizer.crosscheck:s"),
    }
    return {key: {"value": values[key], "unit": unit}
            for key, (unit, needs) in LAYER_METRICS.items()
            if not set(needs) & set(absent)}
