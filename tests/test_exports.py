import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cvmbqc

MODULES = [m.name for m in pkgutil.iter_modules(cvmbqc.__path__, "cvmbqc.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    exported = set(getattr(module, "__all__", ()))
    assert [n for n in bound if n not in read and n not in exported] == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cvmbqc.reduction"])
def test_degeneracy_rule_is_read_only_in_reduction(name):
    # one degeneracy rule: every other module reads eliminate()'s mask
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    assert used & {"RCOND_MIN", "_rcond"} == set()
