"""Seeded input generators for the benchmark workloads.

Every draw comes from ``numpy.random.default_rng([seed, stream, ...])``, so the
same ``--seed`` gives the same inputs on any machine, and each workload
draws from its own stream.  The generators return plain floats and arrays;
the workloads wrap them into the program's types, so the program receives
only the generated inputs.

The quantities that set a trajectory's cost (slit, transverse offset and
pointer sum Sigma_hat'(0)) are stratified over the draws of one call:
each draw comes from its own equal-probability stratum (for Born starts,
one cell of a grid over offset and pointer sum, with every row and column
of the grid split evenly between the slits), in random order.  Each draw
keeps its Born marginal, but the cost of a round varies far less from seed
to seed than with independent draws.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Width of every ground packet at t' = 0 in primed units (|chi|^2 is normal
# with this standard deviation); the Born distribution is built from it.
BORN_SIGMA = 0.5

_BORN_STREAM = 1
_POINTER_STREAM = 2
_ORACLE_STREAM = 3


def _normal(u: np.ndarray, sigma: float) -> np.ndarray:
    dist = NormalDist(0.0, sigma)
    return np.array([dist.inv_cdf(float(p)) for p in np.clip(u, 1e-16, 1.0 - 1e-16)])


def _stratified_normal(rng: np.random.Generator, count: int, sigma: float) -> np.ndarray:
    """``count`` normal values, one from each equal-probability stratum, shuffled."""
    return _normal((rng.permutation(count) + rng.random(count)) / count, sigma)


def _pointer(rng: np.random.Generator, sigma_hat: float, n_particles: int,
             sigma: float) -> np.ndarray:
    """Z'_1..Z'_N normal with width ``sigma`` given their scaled sum ``sigma_hat``.

    The deviations of i.i.d. normals from their mean are independent of the
    mean, so this is the i.i.d. draw conditioned on Sigma_hat'(0).
    """
    w = rng.normal(0.0, sigma, size=n_particles)
    return w - w.mean() + sigma_hat / math.sqrt(n_particles)


def born_starts(seed: int, n_particles: int, count: int, d_prime: float,
                sigma: float = BORN_SIGMA) -> list[tuple[float, float, np.ndarray]]:
    """``count`` starts (X'_0, Y'_0, Z'_0) drawn from |Psi(t' = 0)|^2.

    The slit is +1 or -1 with equal weight; X'_0 is normal around
    slit * d', and Y'_0 and every Z'_n are normal around 0, all with width
    ``sigma``.  ``count`` must be a square k^2 with k even: the offsets and
    the pointer sums fill a k x k grid of equal-probability cells, and each
    row and each column of the grid splits evenly between the slits.  The cross
    term of the two branches is below e^-18 at t' = 0 and is left out.
    """
    k = math.isqrt(count)
    if k * k != count or k % 2:
        raise ValueError(f"count must be the square of an even number, got {count}")
    rng = np.random.default_rng([seed, _BORN_STREAM, n_particles])
    cells = rng.permutation(count)   # one start per cell of the k x k strata grid
    row, col = cells // k, cells % k
    # half of every row and every column of the grid starts at each slit
    shift = (rng.permutation(k)[col] - rng.permutation(k)[row]) % k
    slits = np.where(2 * shift < k, 1.0, -1.0)
    offsets = _normal((row + rng.random(count)) / k, sigma)
    sums = _normal((col + rng.random(count)) / k, sigma)
    y0 = rng.normal(0.0, sigma, size=count)
    return [(float(slits[i] * d_prime + offsets[i]), float(y0[i]),
             _pointer(rng, float(sums[i]), n_particles, sigma)) for i in range(count)]


def pointer_draws(seed: int, n_particles: int, count: int,
                  sigma: float = BORN_SIGMA) -> list[np.ndarray]:
    """``count`` pointer starts Z'_1..Z'_N from the ground distribution."""
    rng = np.random.default_rng([seed, _POINTER_STREAM, n_particles])
    return [_pointer(rng, float(s), n_particles, sigma)
            for s in _stratified_normal(rng, count, sigma)]


def oracle_rng(seed: int, group: int) -> np.random.Generator:
    """Generator for the configuration draws of one velocity-oracle group."""
    return np.random.default_rng([seed, _ORACLE_STREAM, group])
