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


def _names(name):
    """Every name a module reads, binds or imports, attributes included."""
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
    return used


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cvmbqc.reduction"])
def test_degeneracy_rule_is_read_only_in_reduction(name):
    # one degeneracy rule: every other module reads eliminate()'s mask
    assert _names(name) & {"RCOND_MIN", "_rcond"} == set()


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cvmbqc.lattice"])
def test_control_presets_are_read_only_in_lattice(name):
    # one angle map: every other module takes a basis from a graph's
    # angle_map or full_basis, never from its control modes
    assert _names(name) & {"control_modes", "control_angles"} == set()


def test_optimizer_builds_no_start_of_its_own():
    # a search starts only from what its caller gives it
    assert _names("cvmbqc.optimizer") & {
        "DEFAULT_THETA_C", "qrl_cz_angles", "DBSL_SWAP_FREE_ANGLES"} == set()


@pytest.mark.parametrize("name", [m for m in MODULES
                                  if m not in ("cvmbqc.lattice", "cvmbqc.gates")])
def test_default_theta_c_is_read_only_in_lattice_and_gates(name):
    # a fixed-basis plan takes the default control basis from its graph's angle map
    assert "DEFAULT_THETA_C" not in _names(name)


@pytest.mark.parametrize("name", MODULES)
def test_no_search_or_command_frees_theta_c(name):
    # the variable-theta_c DBSL is the closed-form family of gates.dbsl_cz_angles,
    # whose region is built at theta_c; a string, such as the loader's
    # refusal of an old row's key, is not a name
    assert _names(name) & {"variable_theta_c", "row_angles"} == set()


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cvmbqc.gates"])
def test_cz_computation_modes_are_kept_only_in_gates_plans(name):
    # a search region compares every output of every input, so only the
    # plans' steps pick the CZ's computation modes
    assert "CZ_KEEP" not in _names(name)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cvmbqc.reduction"])
def test_kept_modes_are_one_tuple_outside_reduction(name):
    # one keep per region step: only restrict() takes the kept outputs and
    # inputs as two arguments
    assert _names(name) & {"out_keep", "in_keep", "out_sel", "in_real"} == set()
