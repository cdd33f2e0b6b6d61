"""Scenario files: strict JSON schema, named presets, round-trip safety.

A scenario bundles everything one run needs: physical parameters, launch
grid, integrator settings and output options.  The schema is versioned and
strict (unknown keys are rejected at every level) because the shipped
presets double as regression anchors: a file that parses is a file whose
meaning is pinned.

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
from dataclasses import dataclass, replace
from pathlib import Path, PurePath

from .integrate import EnsembleSpec, IntegratorOptions, ZInit, crossing_time
from .model import ScenarioParams, single_pointer_params, two_pointer_params

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "OutputSpec",
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

SCHEMA_VERSION = 1
_FORMATS = ("csv", "json", "svg")


class ScenarioError(ValueError):
    """Malformed or semantically invalid scenario data."""


@dataclass(frozen=True)
class OutputSpec:
    formats: tuple[str, ...] = ("csv", "json")
    path: str | None = None        # default output directory; None = runs/<name>
    stride: int = 1                # write every k-th sample

    def __post_init__(self):
        object.__setattr__(self, "formats", tuple(self.formats))
        for f in self.formats:
            if f not in _FORMATS:
                raise ScenarioError(f"unknown output format {f!r}")
        if self.stride < 1:
            raise ScenarioError("output stride must be >= 1")


@dataclass(frozen=True)
class Scenario:
    name: str
    params: ScenarioParams
    ensemble: EnsembleSpec
    integrator: IntegratorOptions = IntegratorOptions()
    outputs: OutputSpec = OutputSpec()

    def __post_init__(self):
        # the name becomes the run directory runs/<name>; it must stay inside runs/
        path = PurePath(self.name)
        if not path.parts or path.is_absolute() or ".." in path.parts:
            raise ScenarioError(
                f"scenario name {self.name!r} must be a relative path without '..'")
        t_end, t_cross = self.integrator.t_end, crossing_time(self.params)
        if t_end is not None and t_end < t_cross:
            raise ScenarioError(f"integrator.t_end={t_end!r} is below t'_cross={t_cross!r}; "
                                "trajectories could not be classified")


def _require_keys(block: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ScenarioError(f"missing key(s) in {where}: {sorted(missing)}")


def scenario_to_dict(s: Scenario) -> dict:
    z = s.ensemble.z_init
    z_block: dict = {"mode": z.mode}
    if z.mode == "common":
        z_block["value"] = z.value
    elif z.mode == "explicit":
        z_block["values"] = list(z.values)
    else:
        z_block["seed"] = z.seed
    return {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "params": {
            "xi_x": s.params.xi_x,
            "xi_y": s.params.xi_y,
            "r": s.params.r,
            "R": s.params.R,
            "mu": s.params.mu,
            "d_prime": s.params.d_prime,
            "n_particles": s.params.n_particles,
            "pointer_velocities": [list(v) for v in s.params.pointer_velocities],
        },
        "ensemble": {
            "count_per_slit": s.ensemble.count_per_slit,
            "extent": s.ensemble.extent,
            "z_init": z_block,
            "backend": s.ensemble.backend,
        },
        "integrator": {
            "rel_tol": s.integrator.rel_tol,
            "abs_tol": s.integrator.abs_tol,
            "max_step_frac": s.integrator.max_step_frac,
            "t_end": s.integrator.t_end,
            "stride": s.integrator.stride,
            "node_eps": s.integrator.node_eps,
        },
        "outputs": {
            "formats": list(s.outputs.formats),
            "path": s.outputs.path,
            "stride": s.outputs.stride,
        },
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require_keys(data, {"schema_version", "name", "params", "ensemble", "integrator", "outputs"},
                  {"schema_version", "name", "params", "ensemble"}, "scenario")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {data['schema_version']!r} "
                            f"(this build reads {SCHEMA_VERSION})")

    p = data["params"]
    _require_keys(p, {"xi_x", "xi_y", "r", "R", "mu", "d_prime", "n_particles",
                      "pointer_velocities"},
                  {"xi_x", "xi_y", "r", "R", "mu", "d_prime", "pointer_velocities"}, "params")
    try:
        table = tuple((float(a), float(b)) for a, b in p["pointer_velocities"])
        params = ScenarioParams(float(p["xi_x"]), float(p["xi_y"]), float(p["r"]),
                                float(p["R"]), float(p["mu"]), float(p["d_prime"]), table)
        n_declared = int(p["n_particles"]) if "n_particles" in p else len(table)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    if n_declared != len(table):
        raise ScenarioError(
            f"n_particles={p['n_particles']} but pointer_velocities has {len(table)} entries")

    e = data["ensemble"]
    _require_keys(e, {"count_per_slit", "extent", "z_init", "backend"}, {"z_init"}, "ensemble")
    zb = e["z_init"]
    _require_keys(zb, {"mode", "value", "values", "seed"}, {"mode"}, "ensemble.z_init")
    mode = zb["mode"]
    try:
        if mode == "common":
            z_init = ZInit.common(zb.get("value", 0.0))
        elif mode == "explicit":
            z_init = ZInit.explicit(zb.get("values", ()))
        elif mode == "gaussian":
            z_init = ZInit.gaussian(zb["seed"]) if "seed" in zb else ZInit("gaussian")
        else:
            raise ScenarioError(f"unknown z_init mode {mode!r}")
        ensemble = EnsembleSpec(
            count_per_slit=int(e.get("count_per_slit", 9)),
            extent=float(e.get("extent", 0.8)),
            z_init=z_init,
            backend=str(e.get("backend", "full-analytic")),
        )
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc

    i = data.get("integrator", {})
    _require_keys(i, {"rel_tol", "abs_tol", "max_step_frac", "t_end", "stride", "node_eps"},
                  set(), "integrator")
    try:
        integrator = IntegratorOptions(
            rel_tol=float(i.get("rel_tol", 1e-8)),
            abs_tol=float(i.get("abs_tol", 1e-10)),
            max_step_frac=float(i.get("max_step_frac", 1e-2)),
            t_end=None if i.get("t_end") is None else float(i["t_end"]),
            stride=None if i.get("stride") is None else float(i["stride"]),
            node_eps=float(i.get("node_eps", 1e-13)),
        )
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc

    o = data.get("outputs", {})
    _require_keys(o, {"formats", "path", "stride"}, set(), "outputs")
    outputs = OutputSpec(formats=tuple(o.get("formats", ("csv", "json"))),
                         path=o.get("path"), stride=int(o.get("stride", 1)))

    return Scenario(str(data["name"]), params, ensemble, integrator, outputs)


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


def _single(name, R, Xi, n, z_init, backend="full-analytic", count=9):
    params = single_pointer_params(R=R, Xi=Xi, n_particles=n, **_BASE)
    return Scenario(name, params,
                    EnsembleSpec(count_per_slit=count, z_init=z_init, backend=backend))


def _two(name, z_values):
    params = two_pointer_params(R=0.2, Xi=_XI, **_BASE)
    return Scenario(name, params,
                    EnsembleSpec(count_per_slit=1, z_init=ZInit.explicit(z_values),
                                 backend="full-analytic"))


def _build_presets() -> dict[str, Scenario]:
    presets = {
        "fig2": _single("fig2", R=1.0, Xi=0.0, n=1, z_init=ZInit.common(0.0)),
        "fig3": _single("fig3", R=1.0, Xi=_XI, n=1, z_init=ZInit.common(0.0)),
        "fig4": _single("fig4", R=0.2, Xi=_XI, n=1, z_init=ZInit.common(0.0)),
        "fig5": _single("fig5", R=0.2, Xi=_XI, n=1, z_init=ZInit.common(0.3)),
        # the running text quotes 0.5 where the figure itself says 0.3; both ship
        "fig5-text": _single("fig5-text", R=0.2, Xi=_XI, n=1, z_init=ZInit.common(0.5)),
        "fig7": _two("fig7", (0.01, 0.01)),
        "fig8": _two("fig8", (0.5, 0.9)),
        "fig9": _single("fig9", R=0.2, Xi=_XI, n=10, z_init=ZInit.common(0.0),
                        backend="reduced"),
        "fig10": _single("fig10", R=0.2, Xi=_XI, n=10,
                         z_init=ZInit.common(0.3 / math.sqrt(10)), backend="reduced"),
        "fig11": _single("fig11", R=0.2, Xi=_XI, n=10,
                         z_init=ZInit.common(1.0 / math.sqrt(10)), backend="reduced"),
        "fig12": _single("fig12", R=0.2, Xi=_XI, n=200,
                         z_init=ZInit.common(0.3 / math.sqrt(200)), backend="reduced"),
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
    xi = s.params.single_pointer_xi
    if xi is None:
        raise ScenarioError("--n requires a single-pointer scenario")
    if n < 1:
        raise ScenarioError("--n must be >= 1")
    params = single_pointer_params(s.params.xi_x, s.params.xi_y, s.params.r, s.params.R,
                                   s.params.mu, s.params.d_prime, Xi=xi, n_particles=n)
    z = s.ensemble.z_init
    if z.mode == "common":
        scale = math.sqrt(s.params.n_particles / n) if s.params.n_particles else 1.0
        z = ZInit.common(z.value * scale)
    elif z.mode == "explicit" and len(z.values) != n:
        raise ScenarioError(f"explicit z_init has {len(z.values)} entries; cannot set N={n}")
    return replace(s, params=params, ensemble=replace(s.ensemble, z_init=z))


def with_seed(s: Scenario, seed: int) -> Scenario:
    """Switch the pointer start to a seeded draw from its ground distribution."""
    return replace(s, ensemble=replace(s.ensemble, z_init=ZInit.gaussian(seed)))
