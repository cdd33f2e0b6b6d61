"""Bohmian velocities: closed-form backend and finite-difference oracle.

``velocity_analytic`` uses the exact Gaussian gradient algebra of the
kernel.  ``velocity_numeric`` never touches that algebra: it reconstructs
the full complex wave function from branch log-amplitudes/phases and
applies the raw current formula Im(Psi* dPsi)/|Psi|^2 with central finite
differences, which makes it an independent cross-check of every term in
the analytic route.  The decoupled longitudinal motion has the closed form
``y_closed_form``, used as an integration oracle.

The finite-difference stencil (the centre, then each coordinate moved by
+/-h and +/-h/2) is built as rows of configurations and evaluated a block
of rows per batched ``GuidanceKernel.branch_eval`` call; a block holds at
most ``FD_BLOCK_BYTES`` of coordinates, so memory stays bounded at any N.
Every row is still a full branch evaluation: nothing is updated
incrementally from the centre, and no gradient of the analytic route is
reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernel import GuidanceKernel
from .model import NODE_EPS, Configuration, NodeError, ScenarioParams

__all__ = ["VelocityVector", "velocity_analytic", "velocity_numeric", "fd_velocity", "y_closed_form"]

# Bytes of stencil coordinates per batched ``branch_eval`` call: the whole
# stencil up to N = 62, 16 rows a call at N = 1000.  This keeps the kernel's
# pointer-sized temporaries under the C allocator's usual 128 KiB mmap
# threshold.  At N = 1000 in a fresh process, 256 KiB blocks ran 1.9x slower
# (a fresh mapping for every temporary) and 64 KiB blocks 1.6x (more calls).
FD_BLOCK_BYTES = 128 * 1024


@dataclass(frozen=True)
class VelocityVector:
    """(dX'/dt', dY'/dt', dZ'_n/dt') at one configuration."""

    dx: float
    dy: float
    dz: tuple[float, ...]

    def __post_init__(self):
        vals = (self.dx, self.dy, *self.dz)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("velocity entries must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, *self.dz])


def _check_config(config: Configuration, params: ScenarioParams):
    if len(config.z) != params.n_particles:
        raise ValueError(
            f"configuration has {len(config.z)} pointer coordinates, scenario has {params.n_particles}"
        )


def velocity_analytic(config: Configuration, params: ScenarioParams,
                      node_eps: float = NODE_EPS) -> VelocityVector:
    """Exact dimensionless guidance velocity at a non-node configuration."""
    _check_config(config, params)
    kern = GuidanceKernel(params)
    vx, vy, vz = kern.velocity(config.t_prime, config.x, config.y, config.z_array(),
                               node_floor=node_eps)
    return VelocityVector(vx, vy, tuple(float(v) for v in vz))


def fd_velocity(kern: GuidanceKernel, t: float, x: float, y: float, z: np.ndarray,
                h: float = 1e-5, richardson: bool = True,
                node_eps: float = NODE_EPS) -> tuple[float, float, list[float]]:
    """Finite-difference velocity on raw coordinates with a prebuilt kernel.

    Evaluates the 1 + 4(N+2) stencil rows (1 + 2(N+2) without
    ``richardson``) in blocks of whole coordinates, one ``kern.branch_eval``
    call per block, and takes the differences as array operations.
    Raises NodeError if the normalized density at the centre is below
    ``node_eps``.
    """
    steps = np.array((h, -h, h / 2.0, -h / 2.0) if richardson else (h, -h))
    width = steps.size
    dims = kern.n + 2
    centre = np.concatenate(([x, y], z))
    # stencil row 0 is the centre; row 1 + width*k + j has coordinate k moved by steps[j]
    branches = np.empty((4, 1 + width * dims))
    per_block = max(1, FD_BLOCK_BYTES // (8 * width * dims))
    rows = np.empty((1 + width * min(per_block, dims), dims))
    for lo in range(0, dims, per_block):
        nc = min(per_block, dims - lo)  # coordinates lo .. lo + nc - 1
        k = np.arange(nc)
        rows[:] = centre
        rows[1:1 + width * nc].reshape(nc, width, dims)[k, :, lo + k] += steps
        start = 0 if lo == 0 else 1  # the centre row goes with the first block only
        block = rows[start:1 + width * nc]
        branches[:, start + width * lo:1 + width * (lo + nc)] = kern.branch_eval(
            t, block[:, 0], block[:, 1], block[:, 2:])

    lr1, lr2, s1, s2 = branches
    scale = max(lr1[0], lr2[0])
    psi = np.exp((lr1 - scale) + 1j * s1) + np.exp((lr2 - scale) + 1j * s2)
    psi_c = complex(psi[0])
    rho_hat = abs(psi_c) ** 2
    if rho_hat < node_eps:
        raise NodeError(rho_hat)

    moved = psi[1:].reshape(dims, width)
    dpsi = (moved[:, 0] - moved[:, 1]) / (2.0 * h)
    if richardson:
        d2 = (moved[:, 2] - moved[:, 3]) / h
        dpsi = (4.0 * d2 - dpsi) / 3.0
    current = (psi_c.conjugate() * dpsi).imag / rho_hat
    vz = kern.pz * current[2:]
    return kern.px * float(current[0]), kern.py * float(current[1]), vz.tolist()


def velocity_numeric(config: Configuration, params: ScenarioParams,
                     h: float = 1e-5, richardson: bool = True,
                     node_eps: float = NODE_EPS) -> VelocityVector:
    """Finite-difference guidance velocity from the full complex Psi.

    Central differences are O(h^2); with ``richardson`` the h and h/2
    stencils are combined to O(h^4).  The wave function is rescaled by the
    larger branch amplitude at the stencil center, so the ratio
    Im(Psi* dPsi)/|Psi|^2 is immune to amplitude underflow.  Independent of
    the analytic route: only branch values enter, never their gradients.
    """
    if not 0.0 < h <= 1e-4:
        raise ValueError(f"finite-difference step must be in (0, 1e-4], got {h!r}")
    _check_config(config, params)
    kern = GuidanceKernel(params)
    dx, dy, dz = fd_velocity(kern, config.t_prime, config.x, config.y,
                             config.z_array(), h, richardson, node_eps)
    return VelocityVector(dx, dy, tuple(dz))


def y_closed_form(t_prime: float, y0_prime: float, xi_y: float) -> float:
    """Y'(t') = t' + Y'_0 sqrt(1 + 4 t'^2 / xi_y^2) (decoupled longitudinal motion)."""
    if xi_y <= 0:
        raise ValueError("xi_y must be > 0")
    return t_prime + y0_prime * math.sqrt(1.0 + 4.0 * t_prime * t_prime / (xi_y * xi_y))
