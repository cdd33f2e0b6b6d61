"""Exact two-variable reduction of the N-particle pointer dynamics.

For a single rigid pointer the branch ratio and phase difference depend on
the pointer coordinates only through their sum, so the coupled system
closes in (X', Sigma_hat') with Sigma_hat' = (1/sqrt(N)) sum_n Z'_n and an
effective packet velocity Xi_hat = Xi sqrt(N).  Both maps live here alone:
``sigma_hat_of`` (Z' to Sigma_hat', shared to the bit by the engine and
``bohmsim plot``) and ``common_start`` (Sigma_hat' to the Z'_n of N equal
starts).  ``reduced_params`` states the parameter substitution, which
``integrate_trajectory`` applies by running the N = 1 ``GuidanceKernel`` on
(X', Y', Sigma_hat'): no formula is re-derived, so the backends cannot drift.

Individual pointer trajectories follow analytically: every dZ'_n/dt' is
alpha(t') Z'_n + beta_n-independent terms, with alpha the logarithmic
derivative of the packet width, so deviations from the mean obey the pure
spreading law

    Z'_n(t') = Sigma_hat'(t')/sqrt(N) + (Z'_n(0) - Sigma_hat'(0)/sqrt(N)) s(t')

with s(t') = sqrt(1 + 4 mu^2 R^4 t'^2 / (r^4 xi_y^2)).  ``reconstruct_pointers``
builds that (n_times, N) block.  A reduced ``Trajectory`` does not store it:
every read of ``Trajectory.z`` calls it on the whole run, and that call
checks the start against the pointer sum.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernel import GuidanceKernel
from .model import ScenarioParams

__all__ = ["sigma_hat_of", "common_start", "reduced_params", "reconstruct_pointers"]

SUM_ATOL = 1e-12  # how far the scaled sum of z0 may sit from sigma_hat[0]


def sigma_hat_of(z: np.ndarray) -> np.ndarray:
    """Sigma_hat' = (1/sqrt(N)) sum_n Z'_n over the last axis of the array ``z``; zeros at N = 0."""
    n = z.shape[-1]
    return z.sum(axis=-1) / math.sqrt(n) if n else np.zeros(z.shape[:-1])


def common_start(sigma_hat, n: int):
    """The Z'_n = Sigma_hat'/sqrt(N) shared by N pointer particles whose sum is sigma_hat."""
    return sigma_hat / math.sqrt(n)


def reduced_params(params: ScenarioParams) -> ScenarioParams:
    """Map an N-particle single-pointer scenario to its 1-particle twin.

    N and Xi enter the reduced dynamics only through Xi sqrt(N); the twin
    is the one group (1, +Xi sqrt(N), -Xi sqrt(N)).
    ModeError for a scenario that is not one rigid pointer of N >= 1.
    """
    return params.with_rigid_pointer(1, params.rigid_xi() * math.sqrt(params.n_particles))


def reconstruct_pointers(t: np.ndarray, sigma_hat: np.ndarray, z0,
                         params: ScenarioParams) -> np.ndarray:
    """Recover all N pointer trajectories from a reduced (t', Sigma_hat') run.

    ``z0`` are the N initial pointer positions; their scaled sum must match
    sigma_hat[0] to ``SUM_ATOL``.  Returns an (n_times, N) array whose scaled
    row sums reproduce sigma_hat exactly (the deviations from the mean are
    constructed sum-free).  ModeError for a scenario that is not one rigid
    pointer, as in ``reduced_params``.
    """
    t = np.asarray(t, dtype=float)
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    n = z0.size
    if n != params.n_particles:
        raise ValueError(f"z0 has {n} entries, scenario has {params.n_particles}")
    if n == 0:
        return np.zeros((t.size, 0))
    sigma0 = float(sigma_hat_of(z0))
    if abs(sigma0 - sigma_hat[0]) > SUM_ATOL:
        raise ValueError(
            f"initial pointer sum {sigma0!r} does not match the reduced trajectory's "
            f"sigma_hat(0)={sigma_hat[0]!r}"
        )
    # s(t') reads no pointer velocity, so the one-particle twin's kernel gives the same bits
    s = GuidanceKernel(reduced_params(params)).spreading_factor(t)
    mean = common_start(sigma_hat, n)
    dev0 = z0 - float(z0.mean())
    dev0 -= dev0.mean()  # re-center: keeps the scaled row sums exactly on sigma_hat
    return mean[:, None] + np.outer(s, dev0)
