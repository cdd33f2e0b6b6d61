"""Bohmian velocities: closed-form backend and finite-difference oracle.

``velocity_analytic`` uses the exact Gaussian gradient algebra of the
kernel.  ``velocity_numeric`` never touches that algebra: it reconstructs
the full complex wave function from branch log-amplitudes/phases and
applies the raw current formula Im(Psi* dPsi)/|Psi|^2 with central finite
differences, which makes it an independent cross-check of every term in
the analytic route.  These two wrappers have one use left, the benchmark's
``velocity-oracle`` workload and ``perfbench/test_checks.py``.  The decoupled
longitudinal motion has the closed form ``y_closed_form``: the analytic backends'
Y', and the oracle of full-numeric's integrated Y'.

Both routes, ``GuidanceKernel.velocity`` and ``fd_velocity``, keep one
contract: ``route(kern, t, state)`` returns dy/dt' of the state (X', Y',
Z'_1..Z'_N) as a fresh array, or raises NodeError below ``model.NODE_EPS``.

There is one stencil: the centre, then each coordinate moved by +/-h and
+/-h/2, with h = ``FD_H`` = 1e-5; Richardson extrapolation combines the
central differences at h and h/2 to O(h^4).  A fixed h resolves a phase
only up to a wavenumber: ``check_fd_resolves`` refuses parameters whose
fastest one, k, gives k h >= ``FD_MAX_KH``.  The stencil's rows go to
``GuidanceKernel.branch_eval`` a block of whole coordinates per call, at most
``FD_BLOCK_BYTES`` of them, so memory stays bounded at any N; per block, Psi is
one complex exp and the current one weighted dot over each coordinate's four
rows.  Every row is still a full branch evaluation: nothing is updated
incrementally from the centre, and no gradient of the analytic route is
reused.  A call takes 22 us at N = 1 and 35 us at N = 16 (best of 15, a 2-CPU
x86-64 Xeon, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernel import GuidanceKernel
from .model import NODE_EPS, Configuration, NodeError, ScenarioParams

__all__ = ["VelocityVector", "velocity_analytic", "velocity_numeric", "fd_velocity", "y_closed_form"]

# Bytes of stencil coordinates per batched ``branch_eval`` call: the whole stencil up
# to N = 88, 32 rows a call at N = 1000; the stacked residuals, (2, rows, N + 2), are twice
# that.  In fresh processes (fig4, median of 15 calls, 4 processes each), 256 KiB blocks
# read 15 ms at N = 1000 and 150 ms at N = 3000, 128 KiB blocks 19 and 190 ms.
FD_BLOCK_BYTES = 256 * 1024

FD_H = 1e-5
# The largest k * FD_H, for the fastest phase wavenumber k = max(xi_x, xi_y, |Xi+/-|), at
# which the stencil keeps the closed form's 1e-6.  Worst relative gap of each velocity from
# the closed form on fig4:   k h   1e-4     0.03    0.1     1       10
#                            Xi    5.8e-10  5.9e-7  9.2e-6  2.0e-3  1.24
#                            xi_x  4.8e-10  3.2e-8  2.1e-7  2.0e-3
#                            xi_y  4.8e-10  9.4e-8  4.8e-7  2.0e-3
FD_MAX_KH = 0.03
_FD_STEPS = np.array((FD_H, -FD_H, FD_H / 2.0, -FD_H / 2.0))  # per coordinate, in row order
# Richardson's O(h^4) dPsi = (8 [Psi(+h/2) - Psi(-h/2)] - [Psi(+h) - Psi(-h)]) / 6h
_RICHARDSON = np.array((-1.0, 1.0, 8.0, -8.0)) / (6.0 * FD_H)


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
# compare == can differ in the sign of a zero
_last_kernel: tuple = (None, None)


def _at_config(route, config: Configuration, params: ScenarioParams) -> VelocityVector:
    """``route(kern, t, state)`` on one configuration; one kernel per params object."""
    global _last_kernel
    if len(config.z) != params.n_particles:
        raise ValueError(f"configuration has {len(config.z)} pointer coordinates, "
                         f"scenario has {params.n_particles}")
    held, kern = _last_kernel
    if held is not params:
        kern = GuidanceKernel(params)
        _last_kernel = params, kern
    vx, vy, *vz = route(kern, config.t_prime, config.state()).tolist()
    return VelocityVector(vx, vy, tuple(vz))


def velocity_analytic(config: Configuration, params: ScenarioParams) -> VelocityVector:
    """Exact dimensionless guidance velocity at a non-node configuration."""
    return _at_config(GuidanceKernel.velocity, config, params)


def fd_velocity(kern: GuidanceKernel, t: float, state: np.ndarray) -> np.ndarray:
    """Finite-difference dy/dt' at the state (X', Y', Z'_1..Z'_N), as a fresh array.

    The contract of ``GuidanceKernel.velocity``, an array at every N; the state is only
    read.  Evaluates the 1 + 4(N+2) stencil rows in blocks of whole coordinates, one
    ``kern.branch_eval`` call per block, and takes the differences as array operations.
    Raises NodeError if the normalized density at the centre is below
    ``NODE_EPS``.
    """
    dims = kern.n + 2
    per_block = max(1, FD_BLOCK_BYTES // (32 * dims))  # 4 rows of dims floats a coordinate
    steps = _stencil_steps(min(per_block, dims))
    stencil = np.empty((len(steps), dims))
    v = np.empty(dims)
    for lo in range(0, dims, per_block):
        hi = min(lo + per_block, dims)
        start, end = (0 if lo == 0 else 1), 1 + 4 * (hi - lo)  # centre row: first block only
        rows = stencil[start:end]
        rows[:] = state.reshape(dims)  # a state of another length must not broadcast
        rows[:, lo:hi] += steps[start:end, :hi - lo]
        b = kern.branch_eval(t, rows)
        if start == 0:
            scale = max(b.item(0, 0), b.item(1, 0))
        psi = np.add(*np.exp((b[:2] - scale) + 1j * b[2:]))  # Psi_1 + Psi_2
        if start == 0:
            psi_c = complex(psi[0])
            rho_hat = abs(psi_c) ** 2
            if rho_hat < NODE_EPS:
                raise NodeError(rho_hat)
            # np.vecdot conjugates these: Im(conj(Psi) dPsi) / |Psi|^2 is the current
            weights = _RICHARDSON * (psi_c / rho_hat)
            psi = psi[1:]
        dpsi = np.vecdot(weights, psi.reshape(hi - lo, 4))
        np.multiply(dpsi.imag, kern.prefactors[lo:hi], out=v[lo:hi])
    return v


@functools.lru_cache(maxsize=4)
def _stencil_steps(per_block: int) -> np.ndarray:
    """Read-only (1 + 4 per_block, per_block): row 1 + 4k + j moves k by ``_FD_STEPS[j]``."""
    steps = np.vstack((np.zeros(per_block), np.kron(np.eye(per_block), _FD_STEPS[:, None])))
    steps.flags.writeable = False  # every caller shares the cached array
    return steps


def check_fd_resolves(params: ScenarioParams) -> None:
    """ValueError unless the stencil resolves the fastest phase: k FD_H < ``FD_MAX_KH``."""
    groups = params.pointer_groups
    k = max(params.xi_x, params.xi_y, *(abs(v) for _, p, m in groups for v in (p, m)))
    if k * FD_H >= FD_MAX_KH:
        raise ValueError(f"the finite-difference step {FD_H} cannot resolve a phase "
                         f"wavenumber of {k!r} (k h = {k * FD_H!r} must be below "
                         f"{FD_MAX_KH}); use the full-analytic backend")


def velocity_numeric(config: Configuration, params: ScenarioParams) -> VelocityVector:
    """Finite-difference guidance velocity from the full complex Psi.

    Central differences at h and h/2 are combined to O(h^4).  The wave
    function is rescaled by the larger branch amplitude at the stencil
    center, so the ratio
    Im(Psi* dPsi)/|Psi|^2 is immune to amplitude underflow.  Independent of
    the analytic route: only branch values enter, never their gradients.
    """
    return _at_config(fd_velocity, config, params)


def y_closed_form(t_prime, y0_prime: float, xi_y: float):
    """Y'(t') = t' + Y'_0 sqrt(1 + 4 t'^2 / xi_y^2), the decoupled longitudinal motion;
    t' may be an array."""
    if not 0 < xi_y < math.inf:
        raise ValueError(f"xi_y must be positive and finite, got {xi_y!r}")
    return t_prime + y0_prime * np.sqrt(1.0 + 4.0 * t_prime * t_prime / (xi_y * xi_y))
