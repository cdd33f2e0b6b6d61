"""The public surface: every exported name exists, the package re-exports only
exported names, and the package's names, a scenario file's settable keys, the
defaulted parameters of the public functions and the environment variables the
package reads are pinned, so a new setting, export or knob has to edit this file
on purpose."""

import ast
import importlib
import inspect
import pkgutil
import types
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

import bohmsim
from bohmsim.scenario import Scenario

MODULES = sorted(f"bohmsim.{m.name}" for m in pkgutil.iter_modules(bohmsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_exported_by_their_module():
    tree = ast.parse(Path(bohmsim.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"bohmsim.{module_name}")
        assert name in module.__all__, f"bohmsim re-exports {name}, not in {module_name}.__all__"
        assert getattr(bohmsim, name) is getattr(module, name)


PACKAGE_NAMES = {
    "NODE_EPS", "Configuration", "ModeError", "NodeError", "ScenarioParams", "fast_pointer_E",
    "y_closed_form",
    "reconstruct_pointers", "reduced_params",
    "BACKENDS", "EnsembleSpec", "IntegratorOptions", "Trajectory", "ZInit", "crossing_time",
    "integrate_trajectory", "run_ensemble", "sample_initials",
}
SCENARIO_KEYS = {
    "name",
    "params.xi_x", "params.xi_y", "params.r", "params.R", "params.mu", "params.d_prime",
    "params.pointer_groups",
    "ensemble.count_per_slit", "ensemble.backend", "ensemble.z_init.mode",
    "ensemble.z_init.value", "ensemble.z_init.values", "ensemble.z_init.seed",
    "integrator.rel_tol",
}


def settable_keys(cls, prefix="") -> set[str]:
    """Dotted paths of the values a scenario file sets: the dataclass fields, block by block."""
    hints = get_type_hints(cls)
    return {key for f in fields(cls)
            for key in (settable_keys(hints[f.name], f"{prefix}{f.name}.")
                        if is_dataclass(hints[f.name]) else {prefix + f.name})}


def test_package_names_are_pinned():
    names = {n for n, v in vars(bohmsim).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(PACKAGE_NAMES) == 18
    assert names == PACKAGE_NAMES


def test_scenario_file_keys_are_pinned():
    assert len(SCENARIO_KEYS) == 15
    assert settable_keys(Scenario) == SCENARIO_KEYS


KNOBS = {
    "analysis.surreal_fraction_vs_N(sigma_hat0)",
    "integrate.ZInit.common(value)", "integrate.integrate_trajectory(opts)",
    "integrate.integrate_trajectory(backend)", "integrate.run_ensemble(opts)",
    "model.ScenarioParams.with_rigid_pointer(xi)",
    "rk45.solve(rtol)", "rk45.solve(atol)", "rk45.solve(max_step)",
    "runio.write_run(timing)",
    "validate.run_validation(only)",
}


def defaulted_parameters() -> set[str]:
    """``module.function(param)`` for every defaulted parameter of each function in a
    module's ``__all__``, and of each public method and classmethod of its classes."""
    found = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if inspect.isclass(obj):
                members = [(f"{export}.{k}", getattr(v, "__func__", v))
                           for k, v in vars(obj).items() if not k.startswith("_")
                           and isinstance(v, (types.FunctionType, classmethod))]
            else:
                members = [(export, obj)] if inspect.isfunction(obj) else []
            found |= {f"{name.removeprefix('bohmsim.')}.{qual}({p.name})"
                      for qual, fn in members
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty}
    return found


def test_defaulted_parameters_are_pinned():
    assert len(KNOBS) == 11
    assert defaulted_parameters() == KNOBS


ENVIRONMENT_READS: set[str] = set()


def environment_reads() -> set[str]:
    """``module: expression`` for each read of ``os.environ`` or ``os.getenv`` in the
    package, through ``import os``, ``import os.path``, ``import os as ...`` or
    ``from os import ...``."""
    found = set()
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        # "os" itself (``import os`` or ``import os.path``) and any ``import os as ...``
        os_names = {"os"} | {alias.asname for node in ast.walk(tree)
                             if isinstance(node, ast.Import) for alias in node.names
                             if alias.name == "os" and alias.asname}
        bare = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "os"
                for alias in node.names if alias.name in ("environ", "getenv")}
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not ((isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                     and isinstance(node.value, ast.Name) and node.value.id in os_names)
                    or (isinstance(node, ast.Name) and node.id in bare)):
                continue
            # widen to the whole read: os.environ.get(...), os.environ[...], os.getenv(...)
            while isinstance(up := parents.get(node), ast.Attribute) and up.value is node:
                node = up
            if (isinstance(up, ast.Call) and up.func is node
                    or isinstance(up, ast.Subscript) and up.value is node):
                node = up
            found.add(f"{name.removeprefix('bohmsim.')}: {ast.unparse(node)}")
    return found


def test_environment_reads_are_pinned():
    assert environment_reads() == ENVIRONMENT_READS
