"""The benchmark's traced runs wrap package functions by name (the HOOKS
table in perfbench/tracing.py).  A hooked name that goes away silently drops
its per-layer metrics from the traced result, so every hook must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("module_name, path", [hook[:2] for hook in _hooks()])
def test_benchmark_hook_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path} no longer exists"
        owner = getattr(owner, part)
    assert callable(owner)
