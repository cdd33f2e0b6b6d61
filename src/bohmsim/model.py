"""Scenario parameters of the entangled two-branch wave function.

The wave function is a sum of two branches ("upper slit" / "lower slit"),
each a product of Gaussian packets: one transverse packet for the test
particle (coordinate X'), one longitudinal packet (Y', common to both
branches), and N pointer packets (Z'_1..Z'_N).  Everything here works in
primed dimensionless variables: positions in units of the initial packet
widths, time t' scaled by the longitudinal transit rate.

The dimensionless groups are

    xi_x, xi_y : test-particle packet velocities (transverse, longitudinal)
    Xi_n^+/-   : pointer packet velocities for the two branches, stated per
                 group of particles that share them
    r = a/b, R = a/c : width ratios, mu = m/M : mass ratio, d' : half slit
    separation in units of the transverse width.

Sign convention: the upper-slit packet starts at +d' and moves with
transverse velocity -xi_x/(r^2 xi_y), while its pointer packets move with
+Xi_n^+.  The branches themselves are evaluated by ``GuidanceKernel``
(``_kernel.py``), which keeps amplitudes as log R_i and phases S_i so that
the ratio Omega = R_1/R_2 and the phase difference delta_S = S_1 - S_2
stay meaningful even when both amplitudes underflow any fixed-point scale.
``ScenarioParams`` holds no float per particle, so a pointer of 10^23
particles is stated as cheaply as one of 1; a ``Configuration`` holds N.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "NODE_EPS",
    "NodeError",
    "ModeError",
    "ScenarioParams",
    "Configuration",
    "fast_pointer_E",
]

# Normalized-density floor below which the guidance velocity is numerically
# meaningless (destructive-interference node); both velocity routes test it.
NODE_EPS = 1e-12


class NodeError(ArithmeticError):
    """Raised when the local density is below ``NODE_EPS``."""

    def __init__(self, rho_hat: float):
        super().__init__(f"configuration too close to a wave-function node (rho_hat={rho_hat:.3e})")
        self.rho_hat = rho_hat


class ModeError(ValueError):
    """Raised when an operation requires a pointer mode the scenario lacks."""


@dataclass(frozen=True)
class ScenarioParams:
    """Dimensionless physical parameters of one interferometer scenario.

    ``pointer_groups`` states the pointer as run-length groups
    ``(count, Xi_plus, Xi_minus)``: count particles whose packets move with
    Xi_plus when the test particle crosses the upper slit and Xi_minus when
    it crosses the lower one.  The particles are numbered group by group, and
    N is the sum of the counts.  A single rigid pointer of N particles is
    ``((N, Xi, -Xi),)``, and ``with_rigid_pointer`` is the one builder of it;
    two independent one-per-slit pointers are ``((1, Xi, 0), (1, 0, Xi))``.
    Every pointer packet starts centred at z' = 0.
    """

    xi_x: float
    xi_y: float
    r: float
    R: float
    mu: float
    d_prime: float
    pointer_groups: tuple[tuple[int, float, float], ...] = ()

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
        groups = tuple((count, float(p), float(m)) for count, p, m in self.pointer_groups)
        for count, p, m in groups:
            if type(count) is not int or count < 1:
                raise ValueError(f"a pointer group's count must be an int >= 1, got {count!r}")
            if not (math.isfinite(p) and math.isfinite(m)):
                raise ValueError("pointer velocities must be finite")
        object.__setattr__(self, "pointer_groups", groups)
        if self.n_particles > sys.float_info.max:   # N enters the kernel's floats
            raise ValueError(f"a pointer of n={self.n_particles} particles is more than "
                             "a float can count")

    @property
    def n_particles(self) -> int:
        return sum(count for count, _, _ in self.pointer_groups)

    @cached_property
    def single_pointer_xi(self) -> float | None:
        """Common Xi if every group is exactly (+Xi, -Xi), else None.

        Decidable mode test behind ``rigid_xi``; uses exact float equality
        on purpose (scenario files state the groups exactly).
        """
        groups = self.pointer_groups
        xi = groups[0][1] if groups else None
        return xi if groups and all((p, m) == (xi, -xi) for _, p, m in groups) else None

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
        return replace(self, pointer_groups=((n, xi, -xi),))


@dataclass(frozen=True)
class Configuration:
    """One point (X', Y', Z'_1..Z'_N) of configuration space at time t'."""

    t_prime: float
    x: float
    y: float
    z: tuple[float, ...] = field(default=(), repr=False)   # O(N)

    def __post_init__(self):
        z = tuple(map(float, self.z))   # C-level loops: a pointer may hold 10**6 particles
        object.__setattr__(self, "z", z)
        if not (all(map(math.isfinite, (self.t_prime, self.x, self.y)))
                and all(map(math.isfinite, z))):
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
