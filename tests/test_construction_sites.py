"""Scenario parameters are built in model.py; the rest of the package resizes them.

Every other module derives a family member from existing parameters with
``ScenarioParams.with_rigid_pointer``, so "these parameters with a rigid
pointer of n particles" is written once.  The one exception is the preset
table, which declares each canonical scenario from its physical values.
"""

import ast
from pathlib import Path

import bohmsim

CONSTRUCTORS = {"ScenarioParams", "single_pointer_params"}
ALLOWED = {("scenario.py", "_single")}
PACKAGE = Path(bohmsim.__file__).parent


def construction_sites(path: Path) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of every constructor call in one module."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in CONSTRUCTORS:
                    sites.append((path.name, function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_parameters_are_built_only_in_model_and_the_preset_table():
    sites = [site for path in sorted(PACKAGE.glob("*.py")) if path.name != "model.py"
             for site in construction_sites(path)]
    assert {site[:2] for site in sites} >= ALLOWED, "the guard no longer sees the preset table"
    stray = [site for site in sites if site[:2] not in ALLOWED]
    assert not stray, f"build these through ScenarioParams.with_rigid_pointer: {stray}"
