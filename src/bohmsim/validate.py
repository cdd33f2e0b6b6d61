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

`run_validation` executes any subset and reports one pass/fail per suite.
The ``analytic_fn`` hook takes a velocity route, so tests can inject a
broken one and confirm the equivalence suite actually detects it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernel import GuidanceKernel
from .analysis import tau_scaling_fit
from .integrate import IntegratorOptions, integrate_trajectory, run_ensemble
from .model import NODE_EPS, Configuration, NodeError, ScenarioParams
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

    Times are uniform over the default integration horizon; positions are
    drawn around the moving packet centers with the spread of the
    corresponding packet.
    Node-adjacent draws (normalized density < 1e-6) are rejected.
    """
    kern = GuidanceKernel(params)
    horizon, _, _ = IntegratorOptions().resolve(params)
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
        lr1, lr2, s1, s2 = kern.branch_eval(t, x, y, z)
        l, d = lr1 - lr2, s1 - s2
        el = math.exp(-abs(l))
        if 1.0 + el * el + 2.0 * el * math.cos(d) < 1e-6:
            continue
        out.append(Configuration(t, x, y, tuple(z)))
    return out


def check_backend_equivalence(count: int = 1000, tol: float = 1e-6,
                              presets=("fig2", "fig3", "fig4"), seed: int = 20260808,
                              analytic_fn: Callable = GuidanceKernel.velocity) -> tuple[bool, str]:
    """Closed form against finite differences on random non-node configurations.

    Both routes run on each configuration's state, one kernel per preset.
    ``random_configurations`` keeps only draws with a normalized density of
    at least 1e-6, far above any node floor, so a NodeError from either
    route is a failure, not a skip; so is a velocity that is not finite.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    where = ""
    compared = node_errors = 0
    for name in presets:
        params = preset(name).params
        kern = GuidanceKernel(params)
        for cfg in random_configurations(params, count, rng):
            state = cfg.state()
            try:
                va = analytic_fn(kern, cfg.t_prime, state, NODE_EPS)
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


def check_sqrtn_equivalence(n_values=(1, 4, 9, 16), tol: float = 1e-5,
                            opts: IntegratorOptions = IntegratorOptions()) -> tuple[bool, str]:
    base = preset("fig4").params
    worst = 0.0
    for n in n_values:
        params = base.with_rigid_pointer(n)
        z0 = tuple(0.2 * np.linspace(-1.0, 1.0, n)) if n > 1 else (0.1,)
        init = Configuration(0.0, base.d_prime + 0.2, 0.0, z0)
        full = integrate_trajectory(init, params, opts, backend="full-analytic")
        red = integrate_trajectory(init, params, opts, backend="reduced")
        worst = max(worst,
                    float(np.max(np.abs(full.x - red.x))),
                    float(np.max(np.abs(full.sigma_hat - red.sigma_hat))))
    return worst <= tol, f"max |full - reduced| {worst:.3e} over N={tuple(n_values)} (tol {tol:g})"


def check_y_oracle(tol: float = 1e-8,
                   opts: IntegratorOptions = IntegratorOptions()) -> tuple[bool, str]:
    worst = 0.0
    where = ""
    for name in preset_names():
        sc = preset(name)
        for traj in run_ensemble(sc.ensemble, sc.params, opts):
            y0 = traj.initial.y
            exact = np.array([y_closed_form(t, y0, sc.params.xi_y) for t in traj.t])
            err = float(np.max(np.abs(traj.y - exact)))
            if err > worst:
                worst, where = err, name
    return worst <= tol, f"max |Y - closed form| {worst:.3e} (worst preset: {where}, tol {tol:g})"


def check_mirror_symmetry(tol_factor: float = 10.0,
                          opts: IntegratorOptions = IntegratorOptions()) -> tuple[bool, str]:
    sc = preset("fig4")
    tol = tol_factor * opts.rel_tol
    trajs = run_ensemble(sc.ensemble, sc.params, opts)
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


def check_tau_scaling(n_values=(4, 16, 64, 256), threshold: float = 1e-3,
                      expected: float = -0.5, tol: float = 0.05) -> tuple[bool, str]:
    params = preset("fig3").params
    slope = tau_scaling_fit(params, n_values, threshold)
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
