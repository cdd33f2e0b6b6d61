"""Scenario parameters of the entangled two-branch wave function.

The wave function is a sum of two branches ("upper slit" / "lower slit"),
each a product of Gaussian packets: one transverse packet for the test
particle (coordinate X'), one longitudinal packet (Y', common to both
branches), and N pointer packets (Z'_1..Z'_N).  Everything here works in
primed dimensionless variables: positions in units of the initial packet
widths, time t' scaled by the longitudinal transit rate.

The dimensionless groups are

    xi_x, xi_y : test-particle packet velocities (transverse, longitudinal)
    Xi_n^+/-   : per-particle pointer packet velocities for the two branches
    r = a/b, R = a/c : width ratios, mu = m/M : mass ratio, d' : half slit
    separation in units of the transverse width.

Sign convention: the upper-slit packet starts at +d' and moves with
transverse velocity -xi_x/(r^2 xi_y), while its pointer packets move with
+Xi_n^+.  The branches themselves are evaluated by ``GuidanceKernel``
(``_kernel.py``), which keeps amplitudes as log R_i and phases S_i so that
the ratio Omega = R_1/R_2 and the phase difference delta_S = S_1 - S_2
stay meaningful even when both amplitudes underflow any fixed-point scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "NODE_EPS",
    "NodeError",
    "ModeError",
    "ScenarioParams",
    "Configuration",
    "single_pointer_params",
    "two_pointer_params",
    "fast_pointer_E",
]

# Normalized-density floor below which the guidance velocity is numerically
# meaningless (destructive-interference node).
NODE_EPS = 1e-13


class NodeError(ArithmeticError):
    """Raised when the local density is below the node epsilon."""

    def __init__(self, rho_hat: float):
        super().__init__(f"configuration too close to a wave-function node (rho_hat={rho_hat:.3e})")
        self.rho_hat = rho_hat


class ModeError(ValueError):
    """Raised when an operation requires a pointer mode the scenario lacks."""


@dataclass(frozen=True)
class ScenarioParams:
    """Dimensionless physical parameters of one interferometer scenario.

    ``pointer_velocities`` holds one ``(Xi_n_plus, Xi_n_minus)`` pair per
    pointer particle: the packet velocity of particle n when the test
    particle crosses the upper / lower slit.  A single rigid pointer uses
    ``(+Xi, -Xi)`` for every particle; two independent one-per-slit
    pointers use ``(Xi, 0)`` and ``(0, Xi)``.

    TODO: per-particle packet origins (all pointer packets currently start
    centered at z' = 0).
    """

    xi_x: float
    xi_y: float
    r: float
    R: float
    mu: float
    d_prime: float
    pointer_velocities: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for name in ("xi_x", "xi_y", "r", "R", "mu", "d_prime"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.xi_x <= 0:
            raise ValueError("xi_x must be > 0 (the packets must approach each other)")
        for name in ("xi_y", "r", "R", "mu", "d_prime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        vel = tuple((float(p), float(m)) for p, m in self.pointer_velocities)
        if any(not (math.isfinite(p) and math.isfinite(m)) for p, m in vel):
            raise ValueError("pointer velocities must be finite")
        object.__setattr__(self, "pointer_velocities", vel)

    @property
    def n_particles(self) -> int:
        return len(self.pointer_velocities)

    @cached_property
    def single_pointer_xi(self) -> float | None:
        """Common Xi if every entry is exactly (+Xi, -Xi), else None.

        Decidable mode test behind ``rigid_xi``; uses exact float equality
        on purpose (scenario files construct the pairs exactly).
        """
        if self.n_particles == 0:
            return None
        xi = self.pointer_velocities[0][0]
        for p, m in self.pointer_velocities:
            if p != xi or m != -xi:
                return None
        return xi

    @property
    def is_single_pointer(self) -> bool:
        return self.single_pointer_xi is not None

    def rigid_xi(self) -> float:
        """Common Xi of a single rigid pointer; ModeError for any other pointer.

        The one gate for every operation defined only on the rigid-pointer
        family: the reduced backend, tau scaling, the surreal-fraction sweep
        and the fast-pointer discriminant.
        """
        xi = self.single_pointer_xi
        if xi is None:
            raise ModeError("requires a single rigid pointer: N >= 1 particles, "
                            "each with velocities (+Xi, -Xi)")
        return xi

    def with_rigid_pointer(self, n: int, xi: float | None = None) -> ScenarioParams:
        """These parameters with a rigid pointer of n >= 1 particles at (+xi, -xi).

        ``xi`` defaults to this scenario's own rigid-pointer Xi.
        """
        if n < 1:
            raise ValueError(f"a rigid pointer needs n >= 1 particles, got n={n}")
        if xi is None:
            xi = self.rigid_xi()
        return replace(self, pointer_velocities=((xi, -xi),) * n)


def single_pointer_params(
    xi_x: float, xi_y: float, r: float, R: float, mu: float, d_prime: float,
    Xi: float, n_particles: int = 1,
) -> ScenarioParams:
    """One rigid pointer: every particle carries (+Xi, -Xi)."""
    if n_particles < 0:
        raise ValueError("n_particles must be >= 0")
    table = tuple((Xi, -Xi) for _ in range(n_particles))
    return ScenarioParams(xi_x, xi_y, r, R, mu, d_prime, table)


def two_pointer_params(
    xi_x: float, xi_y: float, r: float, R: float, mu: float, d_prime: float, Xi: float,
) -> ScenarioParams:
    """Two independent one-particle pointers, one reacting per slit."""
    return ScenarioParams(xi_x, xi_y, r, R, mu, d_prime, ((Xi, 0.0), (0.0, Xi)))


@dataclass(frozen=True)
class Configuration:
    """One point (X', Y', Z'_1..Z'_N) of configuration space at time t'."""

    t_prime: float
    x: float
    y: float
    z: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        vals = (self.t_prime, self.x, self.y, *self.z)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("configuration entries must be finite")

    def state(self) -> np.ndarray:
        """The state vector (X', Y', Z'_1..Z'_N) that every velocity route reads."""
        return np.array([self.x, self.y, *self.z])


def fast_pointer_E(params: ScenarioParams) -> float:
    """Fast-pointer discriminant E = (Xi/xi_x) R^2 d' mu.

    E > 1: the pointer packets separate before the test-particle packets
    cross (which-way information arrives in time, interference suppressed).
    Only defined for a single rigid pointer.
    """
    return (params.rigid_xi() / params.xi_x) * params.R**2 * params.d_prime * params.mu
