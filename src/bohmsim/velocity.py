"""Bohmian velocities: closed-form backend and finite-difference oracle.

``velocity_analytic`` uses the exact Gaussian gradient algebra of the
kernel.  ``velocity_numeric`` never touches that algebra: it reconstructs
the full complex wave function from branch log-amplitudes/phases and
applies the raw current formula Im(Psi* dPsi)/|Psi|^2 with central finite
differences, which makes it an independent cross-check of every term in
the analytic route.  The decoupled longitudinal motion has the closed form
``y_closed_form``, used as an integration oracle.

Both routes, ``GuidanceKernel.velocity`` and ``fd_velocity``, keep one
contract: ``route(kern, t, state, node_floor)`` returns dy/dt' of the state
(X', Y', Z'_1..Z'_N) as a fresh array.

The finite-difference stencil (the centre, then each coordinate moved by
+/-h and +/-h/2) is built as rows of configurations and evaluated a block
of rows per batched ``GuidanceKernel.branch_eval`` call, which stacks the
two branches; a block holds at most ``FD_BLOCK_BYTES`` of coordinates, so
memory stays bounded at any N.  Every row is still a full branch
evaluation: nothing is updated incrementally from the centre, and no
gradient of the analytic route is reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernel import GuidanceKernel
from .model import NODE_EPS, Configuration, NodeError, ScenarioParams

__all__ = ["VelocityVector", "velocity_analytic", "velocity_numeric", "fd_velocity", "y_closed_form"]

# Bytes of stencil coordinates per batched ``branch_eval`` call: the whole stencil up
# to N = 88, 32 rows a call at N = 1000; the stacked temporaries, (2, rows, N), are twice
# that.  In fresh processes (fig4, median of 15 calls), 256 and 128 KiB blocks both read
# 29 ms at N = 1000, and 184 against 261 ms at N = 3000, where 128 KiB holds one coordinate.
FD_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class VelocityVector:
    """(dX'/dt', dY'/dt', dZ'_n/dt') at one configuration."""

    dx: float
    dy: float
    dz: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dx, self.dy, *self.dz))):
            raise ValueError("velocity entries must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.dx, self.dy, *self.dz])


# (params, kernel) of the last wrapper call, matched by identity: two params that
# compare == can differ in the sign of a zero, and hashing params costs O(N)
_last_kernel: tuple = (None, None)


def _at_config(route, config: Configuration, params: ScenarioParams, *args) -> VelocityVector:
    """``route(kern, t, state, *args)`` on one configuration; one kernel per params object."""
    global _last_kernel
    if len(config.z) != params.n_particles:
        raise ValueError(f"configuration has {len(config.z)} pointer coordinates, "
                         f"scenario has {params.n_particles}")
    held, kern = _last_kernel
    if held is not params:
        kern = GuidanceKernel(params)
        _last_kernel = params, kern
    vx, vy, *vz = route(kern, config.t_prime, config.state(), *args).tolist()
    return VelocityVector(vx, vy, tuple(vz))


def velocity_analytic(config: Configuration, params: ScenarioParams,
                      node_eps: float = NODE_EPS) -> VelocityVector:
    """Exact dimensionless guidance velocity at a non-node configuration."""
    return _at_config(GuidanceKernel.velocity, config, params, node_eps)


def fd_velocity(kern: GuidanceKernel, t: float, state: np.ndarray,
                node_eps: float = NODE_EPS, h: float = 1e-5,
                richardson: bool = True) -> np.ndarray:
    """Finite-difference dy/dt' at the state (X', Y', Z'_1..Z'_N), as a fresh array.

    The same contract as ``GuidanceKernel.velocity``; the state is only
    read.  Evaluates the 1 + 4(N+2) stencil rows (1 + 2(N+2) without
    ``richardson``) in blocks of whole coordinates, one ``kern.branch_eval``
    call per block, and takes the differences as array operations.
    Raises NodeError if the normalized density at the centre is below
    ``node_eps``.
    """
    steps = np.array((h, -h, h / 2.0, -h / 2.0) if richardson else (h, -h))
    width = steps.size
    dims = kern.n + 2
    # stencil row 0 is the centre; row 1 + width*k + j has coordinate k moved by steps[j]
    branches = np.empty((4, 1 + width * dims))
    per_block = max(1, FD_BLOCK_BYTES // (8 * width * dims))
    # flattened, block row 1 + width*k + j, column lo + k is entry dims + k*span + lo + j*dims:
    # a strided view of the rows read as (nc, span), which may run into the spare last row
    span = width * dims + 1
    rows = np.empty((2 + width * min(per_block, dims), dims))
    for lo in range(0, dims, per_block):
        nc = min(per_block, dims - lo)  # coordinates lo .. lo + nc - 1
        rows[:] = state
        diagonal = rows.reshape(-1)[dims:dims + nc * span].reshape(nc, span)
        diagonal[:, lo:lo + width * dims:dims] += steps
        start = 0 if lo == 0 else 1  # the centre row goes with the first block only
        block = rows[start:1 + width * nc]
        branches[:, start + width * lo:1 + width * (lo + nc)] = kern.branch_eval(
            t, block[:, 0], block[:, 1], block[:, 2:])

    scale = max(branches.item(0, 0), branches.item(1, 0))
    psi = np.add(*np.exp((branches[:2] - scale) + 1j * branches[2:]))  # Psi_1 + Psi_2
    psi_c = complex(psi[0])
    rho_hat = abs(psi_c) ** 2
    if rho_hat < node_eps:
        raise NodeError(rho_hat)

    moved = psi[1:].reshape(dims, width)
    diff = moved[:, 0::2] - moved[:, 1::2]  # Psi(+h) - Psi(-h), Psi(+h/2) - Psi(-h/2)
    dpsi = diff[:, 0] / (2.0 * h)
    if richardson:
        dpsi = (4.0 * (diff[:, 1] / h) - dpsi) / 3.0
    v = (psi_c.conjugate() * dpsi).imag / rho_hat  # the probability current per coordinate
    v[0], v[1] = v[0] * kern.px, v[1] * kern.py
    v[2:] *= kern.pz
    return v


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
    return _at_config(fd_velocity, config, params, node_eps, h, richardson)


def y_closed_form(t_prime: float, y0_prime: float, xi_y: float) -> float:
    """Y'(t') = t' + Y'_0 sqrt(1 + 4 t'^2 / xi_y^2) (decoupled longitudinal motion)."""
    if xi_y <= 0:
        raise ValueError("xi_y must be > 0")
    return t_prime + y0_prime * math.sqrt(1.0 + 4.0 * t_prime * t_prime / (xi_y * xi_y))
