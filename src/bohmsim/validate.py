"""Self-validation: the cross-checks that keep the engine honest.

Five suites, each an independent oracle against the production code path:

    backend-equivalence  closed-form vs finite-difference velocities on
                         random non-node configurations of fig2/fig3/fig4
    sqrtn-equivalence    full N-body integration vs the reduced system for
                         N in {1, 4, 9, 16} with matched initial conditions
    y-oracle             integrated Y' vs its closed form on every preset
    mirror-symmetry      launch-grid reflection symmetry of a centered
                         slow-pointer ensemble
    tau-scaling          fitted exponent of the empty-wave suppression
                         time vs N against the predicted -1/2

Each suite fixes its inputs and tolerance in its own body, runs its
presets' own ``integrator`` settings, and states its tolerance in its
reading.  `run_validation` executes any subset and reports one pass/fail
per suite.  Each must run alone under ``--only``, so mirror-symmetry integrates
fig4's ensemble itself rather than share y-oracle's run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernel import GuidanceKernel
from .analysis import tau_scaling_fit
from .integrate import integrate_trajectory, run_ensemble, time_grid
from .model import Configuration, NodeError, ScenarioParams
from .scenario import preset, preset_names
from .velocity import fd_velocity, y_closed_form

__all__ = ["SuiteResult", "SUITES", "run_validation",
           "check_backend_equivalence", "check_sqrtn_equivalence", "check_y_oracle",
           "check_mirror_symmetry", "check_tau_scaling", "random_configurations"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def random_configurations(params: ScenarioParams, count: int,
                          rng: np.random.Generator) -> list[Configuration]:
    """Non-node configurations drawn over the scenario's support.

    Times are uniform over the integration horizon; positions are drawn around the
    moving packet centers with the spread of the corresponding packet.
    Node-adjacent draws (normalized density < 1e-6) are rejected.
    """
    kern = GuidanceKernel(params)
    horizon, _, _ = time_grid(params)
    out: list[Configuration] = []
    while len(out) < count:
        t = float(rng.uniform(0.0, horizon))
        dx, dy, dz = kern.denominators(t)
        branch = 1.0 if rng.uniform() < 0.5 else -1.0
        cx = branch * (params.d_prime - kern.beta * t)
        x = float(cx + rng.normal(0.0, 0.5 * math.sqrt(dx)))
        y = float(t + rng.normal(0.0, 0.5 * math.sqrt(dy)))
        centers = (kern.gam_p if branch > 0 else kern.gam_m) * t
        z = centers + rng.normal(0.0, 0.5 * math.sqrt(dz), size=kern.n)
        l, d, _ = kern.contrast(t, x, z)
        el = math.exp(-abs(l))
        if 1.0 + el * el + 2.0 * el * math.cos(d) < 1e-6:
            continue
        out.append(Configuration(t, x, y, tuple(z)))
    return out


def check_backend_equivalence() -> tuple[bool, str]:
    """Closed form against finite differences on 1000 random non-node configurations
    each of fig2, fig3 and fig4, to 1e-6 relative.

    Both routes run on each configuration's state, one kernel per preset.
    ``random_configurations`` keeps only draws with a normalized density of
    at least 1e-6, far above the node floor, so a NodeError from either
    route is a failure, not a skip; so is a velocity that is not finite.
    """
    tol = 1e-6
    rng = np.random.default_rng(20260808)
    worst = 0.0
    where = ""
    compared = node_errors = 0
    for name in ("fig2", "fig3", "fig4"):
        params = preset(name).params
        kern = GuidanceKernel(params)
        for cfg in random_configurations(params, 1000, rng):
            state = cfg.state()
            try:
                va = np.asarray(kern.velocity(cfg.t_prime, state))
                vn = fd_velocity(kern, cfg.t_prime, state)
            except NodeError:
                node_errors += 1
                continue
            compared += 1
            rel = float(np.max(np.abs(va - vn) / np.maximum(1.0, np.abs(va))))
            if not math.isfinite(rel):
                rel = math.inf
            if rel > worst:
                worst, where = rel, name
    ok = compared > 0 and node_errors == 0 and worst <= tol
    return ok, (f"max rel deviation {worst:.3e} over {compared} configurations, "
                f"{node_errors} raised NodeError (worst preset: {where}, tol {tol:g})")


def check_sqrtn_equivalence() -> tuple[bool, str]:
    """Full against reduced on fig4 at N = 1, 4, 9 and 16, to 1e-5 in X' and Sigma_hat'."""
    tol = 1e-5
    n_values = (1, 4, 9, 16)
    sc = preset("fig4")
    worst = 0.0
    for n in n_values:
        params = sc.params.with_rigid_pointer(n)
        z0 = tuple(0.2 * np.linspace(-1.0, 1.0, n)) if n > 1 else (0.1,)
        init = Configuration(0.0, sc.params.d_prime + 0.2, 0.0, z0)
        full = integrate_trajectory(init, params, sc.integrator, backend="full-analytic")
        red = integrate_trajectory(init, params, sc.integrator, backend="reduced")
        worst = max(worst,
                    float(np.max(np.abs(full.x - red.x))),
                    float(np.max(np.abs(full.sigma_hat - red.sigma_hat))))
    return worst <= tol, f"max |full - reduced| {worst:.3e} over N={n_values} (tol {tol:g})"


def check_y_oracle() -> tuple[bool, str]:
    """Integrated Y' against its closed form on every preset ensemble, to 1e-8."""
    tol = 1e-8
    worst, where = 0.0, ""
    runs = {}   # each distinct run once, under its first name: fig6 is fig5's run
    for sc in map(preset, preset_names()):
        runs.setdefault((sc.ensemble, sc.params, sc.integrator), sc.name)
    for (spec, params, opts), name in runs.items():
        for traj in run_ensemble(spec, params, opts):
            exact = y_closed_form(traj.t, traj.initial.y, params.xi_y)
            err = float(np.max(np.abs(traj.y - exact)))
            if err > worst:
                worst, where = err, name
    return worst <= tol, f"max |Y - closed form| {worst:.3e} (worst preset: {where}, tol {tol:g})"


def check_mirror_symmetry() -> tuple[bool, str]:
    """fig4's upper launches against their lower mirrors, to 10 * rel_tol."""
    sc = preset("fig4")
    tol = 10.0 * sc.integrator.rel_tol
    trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
    k = sc.ensemble.count_per_slit
    worst = 0.0
    for i in range(k):
        up, lo = trajs[i], trajs[i + k]
        if up.n_samples != lo.n_samples:
            return False, f"sample counts differ for mirror pair {i}"
        worst = max(worst,
                    float(np.max(np.abs(up.x + lo.x))),
                    float(np.max(np.abs(up.z + lo.z))),
                    float(np.max(np.abs(up.y - lo.y))))
    return worst <= tol, f"max mirror defect {worst:.3e} over {k} pairs (tol {tol:g})"


def check_tau_scaling() -> tuple[bool, str]:
    """Fitted exponent of fig3's 1e-3 crossing time over N = 4 .. 256: -0.5 +/- 0.05."""
    expected, tol = -0.5, 0.05
    slope = tau_scaling_fit(preset("fig3").params, (4, 16, 64, 256), 1e-3)
    return abs(slope - expected) <= tol, (
        f"fitted exponent {slope:.4f} (expected {expected} +/- {tol})")


SUITES: dict[str, Callable[[], tuple[bool, str]]] = {
    "backend-equivalence": check_backend_equivalence,
    "sqrtn-equivalence": check_sqrtn_equivalence,
    "y-oracle": check_y_oracle,
    "mirror-symmetry": check_mirror_symmetry,
    "tau-scaling": check_tau_scaling,
}


def run_validation(only: str | None = None) -> list[SuiteResult]:
    names = list(SUITES)
    if only is not None:
        if only not in SUITES:
            raise ValueError(f"unknown suite {only!r}; available: {', '.join(names)}")
        names = [only]
    results = []
    for name in names:
        t0 = time.perf_counter()
        try:
            passed, detail = SUITES[name]()
        except Exception as exc:  # a crashed suite is a failed suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, passed, detail, time.perf_counter() - t0))
    return results
