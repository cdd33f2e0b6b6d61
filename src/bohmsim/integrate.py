"""Trajectory integration, initial-condition grids and ensemble runs.

One uniform ODE system per backend:

    full-analytic : (X', Y', Z'_1..Z'_N) with closed-form velocities
    full-numeric  : same system, velocities by finite differences of Psi
    reduced       : (X', Y', Sigma_hat') at effective velocity Xi sqrt(N),
                    pointer trajectories reconstructed analytically on read

Y' is integrated alongside the rest even though it has a closed form; the
closed form serves as an oracle in the tests instead of being wired in.
One tolerance drives the stepper: ``IntegratorOptions.rel_tol``, with the
absolute tolerance rel_tol / 100.  ``time_grid`` derives the rest from the
parameters alone: the horizon ``HORIZON_CROSSINGS`` t'_cross, steps of at most
``MAX_STEP_FRAC`` of it, and samples at t' = 0 and after each of
``SAMPLE_INTERVALS`` equal intervals.
Ensembles follow the canonical grid: per slit, ``count_per_slit``
equidistant launch points spanning +/-``LAUNCH_HALF_WIDTH`` packet widths
around the slit center, the lower-slit points being exact mirror images of
the upper ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from ._kernel import GuidanceKernel, scales
from .model import Configuration, ScenarioParams
from .reduced import reconstruct_pointers, reduced_params, sigma_hat_of
from .rk45 import SolverStats, solve
from .velocity import check_fd_resolves, fd_velocity

__all__ = [
    "BACKENDS",
    "IntegratorOptions",
    "ZInit",
    "EnsembleSpec",
    "Trajectory",
    "crossing_time",
    "time_grid",
    "sample_initials",
    "integrate_trajectory",
    "run_ensemble",
]

BACKENDS = ("full-analytic", "full-numeric", "reduced")
_MODE_SETTING = {"common": "value", "explicit": "values", "gaussian": "seed"}
MAX_STEP_FRAC = 0.02  # step ceiling / horizon: the largest passing the tier-1 convergence gate
HORIZON_CROSSINGS = 2.5  # horizon / t'_cross: the packets have crossed and separated again
SAMPLE_INTERVALS = 512  # horizon / sampling interval: smooth panels; the golden CSVs pin it
LAUNCH_HALF_WIDTH = 0.8  # packet widths, 1.6 standard deviations: ~89% of each slit's density
SQUARABLE = 2.0 ** 511  # bound on t' and a t' over the horizon: their squares stay below 2^1022


def crossing_time(params: ScenarioParams) -> float:
    """t'_cross = d' r^2 xi_y / xi_x, when the test-particle packets meet."""
    return params.d_prime * (params.r * params.r) * params.xi_y / params.xi_x


def time_grid(params: ScenarioParams) -> tuple[float, np.ndarray, float]:
    """(t_end, samples, max_step): the horizon as a Python float, the sample times from 0
    to t_end and the step ceiling.  ValueError unless the horizon, stride and ceiling are
    positive and finite, which values derived from t'_cross may not be, and unless the
    kernel can square t' and its spreading products a t' up to the horizon: each below
    ``SQUARABLE``."""
    t_end = float(HORIZON_CROSSINGS * crossing_time(params))
    stride, max_step = t_end / SAMPLE_INTERVALS, MAX_STEP_FRAC * t_end
    if not all(0 < v < math.inf for v in (t_end, stride, max_step)):
        raise ValueError(f"the horizon, stride and step ceiling {(t_end, stride, max_step)!r} "
                         "must be positive and finite")
    _, _, _, _, ax, ay, az = scales(params)
    if not max(t_end, ax * t_end, ay * t_end, az * t_end) < SQUARABLE:
        raise ValueError(f"the horizon t'={t_end!r} or a spreading product a t' there is at or "
                         "above 2^511, where the guidance kernel's squares overflow")
    samples = np.arange(0.0, t_end, stride)
    if samples.size == 0 or samples[-1] < t_end:
        samples = np.append(samples, t_end)
    return t_end, samples, max_step


@dataclass(frozen=True)
class IntegratorOptions:
    """The integrator block of a scenario: the stepper's tolerance."""

    rel_tol: float = 1e-8            # the stepper's absolute tolerance is rel_tol / 100

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:   # NaN fails too
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")


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
        """The N starts of a launch: a ValueError that names N where they cannot be
        allocated, the first place a run holds a float per particle."""
        if self.mode == "explicit":
            if len(self.values) != n_particles:
                raise ValueError(
                    f"explicit z_init has {len(self.values)} entries, scenario has {n_particles}")
            return np.asarray(self.values)
        try:
            if self.mode == "common":
                return np.full(n_particles, self.value)
            return np.random.default_rng(self.seed).normal(0.0, 0.5, size=n_particles)
        except (MemoryError, OverflowError, ValueError):   # numpy's "maximum dimension"
            raise ValueError(f"a pointer of n={n_particles} particles is too large to "
                             "allocate") from None


@dataclass(frozen=True)
class EnsembleSpec:
    count_per_slit: int = 9
    z_init: ZInit = ZInit.common(0.0)
    backend: str = "full-analytic"

    def __post_init__(self):
        if self.count_per_slit < 1:
            raise ValueError("count_per_slit must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory with per-sample branch diagnostics.

    ``z`` holds the pointer coordinates at every sample, (n_samples, N).
    The full backends store it.  The reduced backend does not: each read
    of ``z`` rebuilds it from ``t``, ``sigma_hat`` and ``initial.z`` with
    ``reconstruct_pointers``, so a reduced trajectory holds O(n_samples + N)
    floats and any ``z`` passed to its constructor is dropped.
    Times are strictly increasing with t[0] = 0.  A degenerate trajectory
    was truncated at a wave-function node and carries fewer samples.
    """

    params: ScenarioParams
    backend: str
    initial: Configuration
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray = field(repr=False)   # so that repr() never rebuilds a reduced one
    sigma_hat: np.ndarray
    log_omega: np.ndarray
    delta_s: np.ndarray
    stats: SolverStats
    degenerate: bool

    def __post_init__(self):
        if self.backend == "reduced":
            object.__delattr__(self, "z")

    def __getattr__(self, name):
        # reached only when the instance holds no such attribute
        if name != "z" or self.__dict__.get("backend") != "reduced":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return reconstruct_pointers(self.t, self.sigma_hat, self.initial.z, self.params)

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
    half = LAUNCH_HALF_WIDTH
    offsets = np.array([0.0]) if k == 1 else np.linspace(-half, half, k)
    z0 = tuple(spec.z_init.draw(params.n_particles))
    upper = [Configuration(0.0, params.d_prime + off, 0.0, z0) for off in offsets]
    lower = [Configuration(0.0, -(params.d_prime + off), 0.0, z0) for off in offsets]
    return upper + lower


def kernel_params(params: ScenarioParams, backend: str) -> ScenarioParams:
    """The parameters of the kernel that ``backend`` steps: the one-particle twin on the
    reduced backend, ``params`` otherwise.  ValueError (ModeError among them) where the
    reduced backend has no twin, or the full-numeric stencil cannot resolve the phase."""
    if backend == "full-numeric":
        check_fd_resolves(params)
    return reduced_params(params) if backend == "reduced" else params


def integrate_trajectory(init: Configuration, params: ScenarioParams,
                         opts: IntegratorOptions = IntegratorOptions(),
                         backend: str = "full-analytic") -> Trajectory:
    """Integrate one trajectory from t' = 0; a start on a node is flagged degenerate."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if init.t_prime != 0.0:
        raise ValueError("initial configuration must be at t' = 0")
    if len(init.z) != params.n_particles:
        raise ValueError(
            f"initial configuration has {len(init.z)} pointer coordinates, "
            f"scenario has {params.n_particles}")

    t_end, samples, max_step = time_grid(params)
    reduced = backend == "reduced"

    y0 = init.state()
    kern = GuidanceKernel(kernel_params(params, backend))
    if reduced:  # (X', Y', Sigma_hat') is the full state of the one-particle twin
        y0 = np.append(y0[:2], sigma_hat_of(y0[2:]))
    if backend == "full-numeric":
        rhs = partial(fd_velocity, kern)
    else:  # N = 1 steps in floats, N >= 2 with the pointer block as coefficients (see rk45)
        rhs = kern.block_velocity if kern.n else kern.velocity
    res = solve(rhs, 0.0, y0, t_end, samples,
                rtol=opts.rel_tol, atol=opts.rel_tol / 100, max_step=max_step)
    t, x, y = res.t, res.y[:, 0], res.y[:, 1]
    log_omega, delta_s, _ = kern.contrast(t, x, res.y[:, 2:])
    z = None if reduced else res.y[:, 2:]   # a reduced z is rebuilt on each read
    sigma_hat = res.y[:, 2] if reduced else sigma_hat_of(z)

    return Trajectory(params=params, backend=backend, initial=init,
                      t=t, x=x, y=y, z=z, sigma_hat=sigma_hat,
                      log_omega=log_omega, delta_s=delta_s,
                      stats=res.stats, degenerate=res.degenerate)


def run_ensemble(spec: EnsembleSpec, params: ScenarioParams,
                 opts: IntegratorOptions = IntegratorOptions()) -> list[Trajectory]:
    """Integrate the whole launch grid serially, in input order."""
    return [integrate_trajectory(init, params, opts, spec.backend)
            for init in sample_initials(spec, params)]
