"""Scenario files: strict JSON schema, named presets, round-trip safety.

A scenario bundles everything one run needs: physical parameters, launch
grid and integrator tolerance.  What a run writes is fixed: a CSV per
trajectory, sampled on the grid of ``integrate`` (horizon 2.5 t'_cross, 512
equal intervals), and a manifest; the SVG panels come from ``bohmsim plot``.  The schema is versioned and
strict (unknown keys are rejected at every level) because the shipped
presets double as regression anchors: a file that parses is a file whose
meaning is pinned.

The dataclasses are the schema: each block's keys, defaults and JSON types
come from the fields of ``ScenarioParams``, ``EnsembleSpec`` (with
``ZInit``) and ``IntegratorOptions``, and their
``__post_init__`` range checks serve files, presets and command-line
overrides alike.  ``Scenario`` adds the checks that span blocks: the
kernel's scales and the derived horizon, stride and step ceiling must be
positive and finite.
The integrator block holds one tolerance, ``rel_tol`` (see ``integrate``).
The pointer is ``params.pointer_groups``, run-length groups
``[[count, Xi+, Xi-], ...]`` whose counts sum to N, so the file's size does
not grow with N unless an explicit ``z_init`` lists the N starts.

Presets ``fig2`` .. ``fig12`` encode the canonical two-slit/pointer
scenarios used throughout: a shared base (xi_x = xi_y = 10, r = mu = 1,
d' = 3, Xi = 10) with

    fig2   uncoupled pointer (Xi = 0)
    fig3   fast pointer (R = 1, E = 3)
    fig4   slow pointer (R = 0.2, E = 0.12), centered pointer
    fig5   slow pointer, offset pointer Z'_0 = 0.3  (fig5-text: 0.5)
    fig6   same run as fig5, plotted as the two projections
    fig7   two one-particle pointers, Z'_0 = (0.01, 0.01), one shot per slit
    fig8   two one-particle pointers, Z'_0 = (0.5, 0.9)
    fig9   N = 10, Sigma_hat'(0) = 0, reduced backend
    fig10  N = 10, Sigma_hat'(0) = 0.3
    fig11  N = 10, Sigma_hat'(0) = 1
    fig12  N = 200, Sigma_hat'(0) = 0.3
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path, PurePath
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from ._kernel import scales
from .integrate import EnsembleSpec, IntegratorOptions, ZInit, kernel_params, time_grid
from .model import ScenarioParams
from .reduced import common_start

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "Scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "preset",
    "preset_names",
    "with_backend",
    "with_n_particles",
    "with_seed",
]

SCHEMA_VERSION = 7


class ScenarioError(ValueError):
    """Malformed or semantically invalid scenario data."""


@dataclass(frozen=True)
class Scenario:
    name: str
    params: ScenarioParams
    ensemble: EnsembleSpec
    integrator: IntegratorOptions = IntegratorOptions()

    def __post_init__(self):
        # the name becomes the run directory runs/<name>; it must stay inside runs/
        path = PurePath(self.name)
        if not path.parts or path.is_absolute() or ".." in path.parts:
            raise ScenarioError(
                f"scenario name {self.name!r} must be a relative path without '..'")
        try:
            scales(self.params)
            time_grid(self.params)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        backend = self.ensemble.backend
        try:
            twin = kernel_params(self.params, backend)
            if twin is not self.params:
                scales(twin)
        except ValueError as exc:
            raise ScenarioError(f"ensemble.backend = {backend!r}: {exc}") from exc
        z, n = self.ensemble.z_init, self.params.n_particles
        if z.mode == "explicit" and len(z.values) != n:
            raise ScenarioError(f"explicit z_init has {len(z.values)} entries, "
                                f"the pointer has {n} particles")


def _to_json(obj):
    if isinstance(obj, ZInit):
        return {"mode": obj.mode, obj.setting: _to_json(getattr(obj, obj.setting))}
    if is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    return obj


def scenario_to_dict(s: Scenario) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_to_json(s)}


def _from_json(value, hint, where: str):
    """``value`` as the Python type ``hint``; ScenarioError if its JSON type differs."""
    args = get_args(hint)
    if get_origin(hint) is UnionType:                # X | None
        return None if value is None else _from_json(value, args[0], where)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ScenarioError(f"{where} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ScenarioError(f"{where} must hold {len(args)} entries, got {value!r}")
        return tuple(_from_json(v, a, f"{where}[{i}]")
                     for i, (v, a) in enumerate(zip(value, args)))
    if is_dataclass(hint):
        return _build(hint, value, where)
    accepted = {float: (int, float), int: int, str: str}[hint]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ScenarioError(f"{where} must be of type {hint.__name__}, got {value!r}")
    try:
        return hint(value)
    except OverflowError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _build(cls, block, where: str):
    """One dataclass from a JSON object whose keys are exactly its fields."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {block!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(block) - set(known)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = {name for name, f in known.items() if f.default is MISSING} - set(block)
    if missing:
        raise ScenarioError(f"missing key(s) in {where}: {sorted(missing)}")
    hints = get_type_hints(cls)
    kwargs = {k: _from_json(v, hints[k], f"{where}.{k}") for k, v in block.items()}
    try:
        obj = cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    return obj


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    data = dict(data)
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION} "
            "(version 2 replaced outputs.formats with the boolean outputs.svg and "
            "dropped outputs.path; version 3 dropped integrator.node_eps; version 4 "
            "dropped the outputs block: in place of outputs.svg run 'bohmsim plot <run>', "
            "and outputs.stride has no successor (see version 6); version 5 fixed "
            "integrator.abs_tol at rel_tol / 100 and integrator.max_step_frac at 0.02; "
            "version 6 fixed integrator.t_end at 2.5 t'_cross, integrator.stride at "
            "t_end / 512 and ensemble.extent at 0.8; version 7 replaced "
            "params.pointer_velocities, one [Xi+, Xi-] pair per particle, with "
            "params.pointer_groups, [[count, Xi+, Xi-], ...], and dropped "
            "params.n_particles, which is the sum of the counts)")
    return _build(Scenario, data, "scenario")


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n")


def load_scenario(path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data)


# -- presets ---------------------------------------------------------------

_BASE = dict(xi_x=10.0, xi_y=10.0, r=1.0, mu=1.0, d_prime=3.0)
_XI = 10.0


def _single(name, R, Xi, n, sigma_hat0, **ensemble):
    params = ScenarioParams(**_BASE, R=R).with_rigid_pointer(n, Xi)
    z_init = ZInit.common(common_start(sigma_hat0, n))
    return Scenario(name, params, EnsembleSpec(z_init=z_init, **ensemble))


def _two(name, z_values):
    params = ScenarioParams(**_BASE, R=0.2, pointer_groups=((1, _XI, 0.0), (1, 0.0, _XI)))
    return Scenario(name, params,
                    EnsembleSpec(count_per_slit=1, z_init=ZInit.explicit(z_values)))


def _build_presets() -> dict[str, Scenario]:
    presets = {
        "fig2": _single("fig2", R=1.0, Xi=0.0, n=1, sigma_hat0=0.0),
        "fig3": _single("fig3", R=1.0, Xi=_XI, n=1, sigma_hat0=0.0),
        "fig4": _single("fig4", R=0.2, Xi=_XI, n=1, sigma_hat0=0.0),
        "fig5": _single("fig5", R=0.2, Xi=_XI, n=1, sigma_hat0=0.3),
        # the running text quotes 0.5 where the figure itself says 0.3; both ship
        "fig5-text": _single("fig5-text", R=0.2, Xi=_XI, n=1, sigma_hat0=0.5),
        "fig7": _two("fig7", (0.01, 0.01)),
        "fig8": _two("fig8", (0.5, 0.9)),
        "fig9": _single("fig9", R=0.2, Xi=_XI, n=10, sigma_hat0=0.0, backend="reduced"),
        "fig10": _single("fig10", R=0.2, Xi=_XI, n=10, sigma_hat0=0.3, backend="reduced"),
        "fig11": _single("fig11", R=0.2, Xi=_XI, n=10, sigma_hat0=1.0, backend="reduced"),
        "fig12": _single("fig12", R=0.2, Xi=_XI, n=200, sigma_hat0=0.3, backend="reduced"),
    }
    presets["fig6"] = replace(presets["fig5"], name="fig6")  # same run, both projections
    return presets


_PRESETS = _build_presets()


def preset_names() -> list[str]:
    return sorted(_PRESETS, key=lambda k: (len(k), k))


def preset(name: str) -> Scenario:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ScenarioError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")


# -- command-line overrides -------------------------------------------------

def with_backend(s: Scenario, backend: str) -> Scenario:
    try:
        return replace(s, ensemble=replace(s.ensemble, backend=backend))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def with_n_particles(s: Scenario, n: int) -> Scenario:
    """Override N, preserving Sigma_hat'(0) for a common-value pointer start."""
    try:
        params = s.params.with_rigid_pointer(n)
    except ValueError as exc:
        raise ScenarioError(f"--n: {exc}") from exc
    z = s.ensemble.z_init
    if z.mode == "common":
        scale = math.sqrt(s.params.n_particles / n) if s.params.n_particles else 1.0
        z = ZInit.common(z.value * scale)
    return replace(s, params=params, ensemble=replace(s.ensemble, z_init=z))


def with_seed(s: Scenario, seed: int) -> Scenario:
    """Switch the pointer start to a seeded draw from its ground distribution."""
    return replace(s, ensemble=replace(s.ensemble, z_init=ZInit.gaussian(seed)))
