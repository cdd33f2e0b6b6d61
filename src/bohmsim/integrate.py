"""Trajectory integration, initial-condition grids and ensemble runs.

One uniform ODE system per backend:

    full-analytic : (X', Y', Z'_1..Z'_N) with closed-form velocities
    full-numeric  : same system, velocities by finite differences of Psi
    reduced       : (X', Y', Sigma_hat') at effective velocity Xi sqrt(N),
                    pointer trajectories reconstructed analytically

Y' is integrated alongside the rest even though it has a closed form; the
closed form serves as an oracle in the tests instead of being wired in.
Ensembles follow the canonical grid: per slit, ``count_per_slit``
equidistant launch points spanning +/-``extent`` packet widths around the
slit center, the lower-slit points being exact mirror images of the upper
ones.  `BOHM_SIM_THREADS` caps process parallelism for ensemble runs
(unset: serial, 0: one per CPU); results always come back in input order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from ._kernel import GuidanceKernel
from .model import NODE_EPS, Configuration, ScenarioParams
from .reduced import reconstruct_pointers, reduced_params
from .rk45 import SolverStats, solve
from .velocity import fd_velocity

__all__ = [
    "BACKENDS",
    "IntegratorOptions",
    "ZInit",
    "EnsembleSpec",
    "Trajectory",
    "crossing_time",
    "sample_initials",
    "integrate_trajectory",
    "run_ensemble",
]

BACKENDS = ("full-analytic", "full-numeric", "reduced")
_MODE_SETTING = {"common": "value", "explicit": "values", "gaussian": "seed"}


def crossing_time(params: ScenarioParams) -> float:
    """t'_cross = d' r^2 xi_y / xi_x, when the test-particle packets meet."""
    return params.d_prime * params.r**2 * params.xi_y / params.xi_x


@dataclass(frozen=True)
class IntegratorOptions:
    """Adaptive-stepper settings; ``resolve`` fills scenario-dependent defaults."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step_frac: float = 1e-2      # ceiling on h as a fraction of the horizon
    t_end: float | None = None       # horizon; default 2.5 * t'_cross
    stride: float | None = None      # output sampling interval; default horizon/512
    node_eps: float = NODE_EPS

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not 0 < v < math.inf:   # NaN fails too
                raise ValueError(f"{f.name} must be positive and finite, got {v!r}")

    def resolve(self, params: ScenarioParams) -> tuple[float, float, float]:
        """(t_end, stride, max_step) for a given scenario."""
        t_end = self.t_end if self.t_end is not None else 2.5 * crossing_time(params)
        stride = self.stride if self.stride is not None else t_end / 512.0
        return t_end, stride, self.max_step_frac * t_end

    def sample_grid(self, params: ScenarioParams) -> np.ndarray:
        t_end, stride, _ = self.resolve(params)
        times = np.arange(0.0, t_end, stride)
        if times.size == 0 or times[-1] < t_end:
            times = np.append(times, t_end)
        return times


@dataclass(frozen=True)
class ZInit:
    """Initial pointer positions: a shared value, an explicit list, or a
    seeded draw from the ground-packet distribution |chi(z,0)|^2, which in
    primed units is Gaussian with standard deviation 1/2."""

    mode: str
    value: float = 0.0
    values: tuple[float, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in _MODE_SETTING:
            raise ValueError(f"unknown z_init mode {self.mode!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for f in fields(self):
            if f.name not in ("mode", self.setting) and getattr(self, f.name) != f.default:
                raise ValueError(f"z_init mode {self.mode!r} takes no {f.name!r}")
        if self.mode == "gaussian" and (self.seed is None or self.seed < 0):
            raise ValueError(f"gaussian z_init requires a seed >= 0, got {self.seed!r}")
        if not all(math.isfinite(v) for v in (self.value, *self.values)):
            raise ValueError("z_init positions must be finite")

    @property
    def setting(self) -> str:
        """The one field besides ``mode`` that this mode reads."""
        return _MODE_SETTING[self.mode]

    @classmethod
    def common(cls, value: float = 0.0) -> "ZInit":
        return cls("common", value=float(value))

    @classmethod
    def explicit(cls, values) -> "ZInit":
        return cls("explicit", values=tuple(values))

    @classmethod
    def gaussian(cls, seed: int) -> "ZInit":
        return cls("gaussian", seed=int(seed))

    def draw(self, n_particles: int) -> np.ndarray:
        if self.mode == "common":
            return np.full(n_particles, self.value)
        if self.mode == "explicit":
            if len(self.values) != n_particles:
                raise ValueError(
                    f"explicit z_init has {len(self.values)} entries, scenario has {n_particles}")
            return np.asarray(self.values)
        return np.random.default_rng(self.seed).normal(0.0, 0.5, size=n_particles)


@dataclass(frozen=True)
class EnsembleSpec:
    count_per_slit: int = 9
    extent: float = 0.8              # launch-grid half-width, in packet widths
    z_init: ZInit = ZInit.common(0.0)
    backend: str = "full-analytic"

    def __post_init__(self):
        if self.count_per_slit < 1:
            raise ValueError("count_per_slit must be >= 1")
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory with per-sample branch diagnostics.

    ``z`` holds the pointer coordinates at every sample, (n_samples, N);
    for the reduced backend these are the analytically reconstructed ones.
    Times are strictly increasing with t[0] = 0.  A degenerate trajectory
    was truncated at a wave-function node and carries fewer samples.
    """

    params: ScenarioParams
    backend: str
    initial: Configuration
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sigma_hat: np.ndarray
    log_omega: np.ndarray
    delta_s: np.ndarray
    stats: SolverStats
    degenerate: bool

    @property
    def n_samples(self) -> int:
        return int(self.t.size)

    @cached_property
    def initial_slit(self) -> str:
        return "upper" if self.initial.x > 0 else "lower"


def sample_initials(spec: EnsembleSpec, params: ScenarioParams) -> list[Configuration]:
    """Launch grid: upper-slit points first, then their exact mirrors.

    All trajectories of one ensemble share the same pointer draw, as in the
    reference figures (the test-particle grid is scanned at fixed pointer).
    """
    k = spec.count_per_slit
    offsets = np.array([0.0]) if k == 1 else np.linspace(-spec.extent, spec.extent, k)
    z0 = tuple(spec.z_init.draw(params.n_particles))
    upper = [Configuration(0.0, params.d_prime + off, 0.0, z0) for off in offsets]
    lower = [Configuration(0.0, -(params.d_prime + off), 0.0, z0) for off in offsets]
    return upper + lower


def integrate_trajectory(init: Configuration, params: ScenarioParams,
                         opts: IntegratorOptions = IntegratorOptions(),
                         backend: str = "full-analytic") -> Trajectory:
    """Integrate one trajectory from a t' = 0, non-node configuration."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if init.t_prime != 0.0:
        raise ValueError("initial configuration must be at t' = 0")
    if len(init.z) != params.n_particles:
        raise ValueError(
            f"initial configuration has {len(init.z)} pointer coordinates, "
            f"scenario has {params.n_particles}")

    t_end, _, max_step = opts.resolve(params)
    samples = opts.sample_grid(params)
    node_floor = 10.0 * opts.node_eps
    n = params.n_particles
    sqrt_n = math.sqrt(n) if n else 1.0

    y0 = init.state()
    kern = GuidanceKernel(reduced_params(params) if backend == "reduced" else params)
    if backend == "reduced":  # (X', Y', Sigma_hat') is the full state of the one-particle twin
        y0 = np.append(y0[:2], y0[2:].sum() / sqrt_n)
    route = fd_velocity if backend == "full-numeric" else GuidanceKernel.velocity

    def rhs(t, state):
        return route(kern, t, state, node_floor)

    res = solve(rhs, 0.0, y0, t_end, samples,
                rtol=opts.rel_tol, atol=opts.abs_tol, max_step=max_step)
    t, x, y = res.t, res.y[:, 0], res.y[:, 1]
    log_omega, delta_s, _ = kern.contrast(t, x, res.y[:, 2:])
    if backend == "reduced":
        sigma_hat = res.y[:, 2]
        z = reconstruct_pointers(t, sigma_hat, np.asarray(init.z), params)
    else:
        z = res.y[:, 2:]
        sigma_hat = z.sum(axis=1) / sqrt_n if n else np.zeros(t.size)

    return Trajectory(params=params, backend=backend, initial=init,
                      t=t, x=x, y=y, z=z, sigma_hat=sigma_hat,
                      log_omega=log_omega, delta_s=delta_s,
                      stats=res.stats, degenerate=res.degenerate)


def _run_one(job) -> Trajectory:
    init, params, opts, backend = job
    return integrate_trajectory(init, params, opts, backend)


def _worker_count(n_jobs: int) -> int:
    env = os.environ.get("BOHM_SIM_THREADS", "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
        if workers < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"BOHM_SIM_THREADS must be an integer >= 0, got {env!r}") from None
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def run_ensemble(spec: EnsembleSpec, params: ScenarioParams,
                 opts: IntegratorOptions = IntegratorOptions()) -> list[Trajectory]:
    """Integrate the whole launch grid; deterministic order, optional processes."""
    initials = sample_initials(spec, params)
    jobs = [(init, params, opts, spec.backend) for init in initials]
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [_run_one(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))
