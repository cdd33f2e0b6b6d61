"""Scenario parameters are built in model.py, and the node floor is read by the routes.

``ScenarioParams.with_rigid_pointer`` is the one builder of a rigid pointer:
every other module derives a family member from existing parameters with it,
so "these parameters with a rigid pointer of n particles" is written once.
The one exception is the preset table (``_single`` and ``_two`` in
scenario.py), which declares each canonical scenario from its physical
values: a rigid pointer through ``with_rigid_pointer``, the two one-particle
pointers of fig7 and fig8 as two groups of one particle.

The node floor ``NODE_EPS`` is declared in model.py and tested by the two
velocity routes alone, the closed form and ``fd_velocity``: they are the only
places that raise ``NodeError``, and every caller, the stepper included, gets
the floor through them.  The closed form raises it in
``GuidanceKernel.coefficients``, the scalar core under ``velocity`` and
``block_velocity``.

The command line's exit-code policy lives in ``cli.main`` alone: the commands
raise, and only ``main`` names the configuration and integration exit codes.

The sqrt(N) map lives in reduced.py: ``sigma_hat_of`` (Z' to Sigma_hat'),
``common_start`` (Sigma_hat' to a shared Z') and ``reduced_params`` (Xi to
Xi sqrt(N)).  The one other sqrt(N) is ``scenario.with_n_particles``, whose
sqrt(N_old/N) rescales a common start without forming Sigma_hat'.  Every
other square root in the package is pinned by (file, function) as well.

Which states are computed in Python floats is decided once, by the right-hand
side: ``block_velocity`` answers the block form's (core, lin, basis), and
``rk45.solve`` picks its stage form from that first answer and the block's width.
So the package holds one ``type(...) is tuple`` test, ``solve``'s read of that
answer.
"""

import ast
from pathlib import Path

import bohmsim

CONSTRUCTORS = {"ScenarioParams"}
ALLOWED = {("scenario.py", "_single"), ("scenario.py", "_two")}
NODE_EPS_READERS = {"_kernel.py", "velocity.py"}
NODE_RAISERS = {("_kernel.py", "coefficients"), ("velocity.py", "fd_velocity")}
EXIT_CODES = {"EXIT_CONFIG", "EXIT_INTEGRATION"}
SQRT_SITES = {
    ("reduced.py", "sigma_hat_of"), ("reduced.py", "common_start"),
    ("reduced.py", "reduced_params"), ("scenario.py", "with_n_particles"),
    # square roots of something other than N
    ("_kernel.py", "spreading_factor"), ("rk45.py", "_initial_step"), ("rk45.py", "attempt"),
    ("validate.py", "random_configurations"), ("velocity.py", "y_closed_form"),
}
TUPLE_TESTS = [("rk45.py", "solve")]
PACKAGE = Path(bohmsim.__file__).parent


def _name(node) -> str | None:
    """The name a Name, Attribute or import alias node spells."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)


def _is_constructor_call(node) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) in CONSTRUCTORS


def _is_node_raise(node) -> bool:
    exc = getattr(node, "exc", None)
    return isinstance(node, ast.Raise) and _name(getattr(exc, "func", exc)) == "NodeError"


def _names_node_eps(node) -> bool:
    return isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and _name(node) == "NODE_EPS"


def _is_sqrt_call(node) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == "sqrt"


def _tests_for_tuple(node) -> bool:
    """``type(x) is tuple``: a read of the form a state or a slope comes in."""
    return (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Is)
            and isinstance(node.left, ast.Call) and _name(node.left.func) == "type"
            and _name(node.comparators[0]) == "tuple")


def _reads_exit_code(node) -> bool:
    return (isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in EXIT_CODES
            and isinstance(node.ctx, ast.Load))


def sites(path: Path, matches) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of every node of one module that ``matches``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append((path.name, function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def package_sites(matches, skip=("model.py",)) -> list[tuple[str, str | None, int]]:
    return [site for path in sorted(PACKAGE.glob("*.py")) if path.name not in skip
            for site in sites(path, matches)]


def test_parameters_are_built_only_in_model_and_the_preset_table():
    found = package_sites(_is_constructor_call)
    assert {site[:2] for site in found} >= ALLOWED, "the guard no longer sees the preset table"
    stray = [site for site in found if site[:2] not in ALLOWED]
    assert not stray, f"build these through ScenarioParams.with_rigid_pointer: {stray}"


def test_node_floor_is_named_only_by_the_velocity_routes():
    found = package_sites(_names_node_eps, skip=("model.py", "__init__.py"))
    assert {site[0] for site in found} == NODE_EPS_READERS, \
        f"NODE_EPS is for the velocity routes to test: {found}"


def test_only_the_velocity_routes_raise_node_error():
    found = package_sites(_is_node_raise)
    assert {site[:2] for site in found} == NODE_RAISERS, found


def test_exit_codes_are_named_only_in_cli_main():
    found = package_sites(_reads_exit_code, skip=())
    assert {site[:2] for site in found} == {("cli.py", "main")}, \
        f"raise from the command and let cli.main choose the exit code: {found}"


def test_sqrt_n_is_taken_only_in_reduced():
    found = package_sites(_is_sqrt_call, skip=())
    assert {site[:2] for site in found} == SQRT_SITES, \
        f"take Sigma_hat' and its common start from reduced.py: {found}"


def test_the_stage_form_is_read_once_by_solve():
    found = package_sites(_tests_for_tuple, skip=())
    assert [site[:2] for site in found] == TUPLE_TESTS, \
        f"let the right-hand side's answer pick the stage form, in rk45.solve alone: {found}"
