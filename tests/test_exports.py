"""Every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bohmsim

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
