"""Wall-clock comparison of the trajectory backends vs pointer size N.

The full backends integrate N+2 coupled equations, so their cost grows
with N; the reduced backend always integrates 3 (X', Y', Sigma_hat'), so
its core cost must not depend on N.  That is the headline check reported
here.  Pointer reconstruction is O(N) per output sample and is timed
separately on a thinned sample grid (and skipped above
``MAX_RECONSTRUCT_N``, where the arrays alone would dominate).

The bench scenario is preset ``fig3`` with its rigid pointer resized to N:
the fast-pointer base (R = 1, Xi = 10, E = 3), whose reduced dynamics keep
the same character at any N, so timing differences reflect backend cost,
not a change of physics.  Every trajectory starts at the upper slit centre
with all Z'_n = 0 and runs under the preset's integrator options.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .integrate import integrate_trajectory
from .model import Configuration
from .reduced import reconstruct_pointers, reduced_params
from .scenario import preset

__all__ = ["BenchRecord", "BenchReport", "run_bench"]

MAX_RECONSTRUCT_N = 100_000
_SCENARIO = preset("fig3")


@dataclass(frozen=True)
class BenchRecord:
    backend: str
    n_particles: int
    median_core_s: float
    repetitions: int
    steps: int
    reconstruct_s: float | None = None   # reduced backend only, thinned grid


@dataclass(frozen=True)
class BenchReport:
    records: tuple[BenchRecord, ...]
    reduced_core_ratio: float | None     # max/min reduced core time
    reduced_n_independent: bool | None   # ratio < 2


def _median_time(fn, repetitions: int) -> tuple[float, object]:
    fn()  # warm-up, untimed
    times = []
    result = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2], result


def _full_record(backend: str, n: int, repetitions: int) -> BenchRecord:
    params = _SCENARIO.params.with_rigid_pointer(n)
    init = Configuration(0.0, params.d_prime, 0.0, (0.0,) * n)
    median, traj = _median_time(
        lambda: integrate_trajectory(init, params, _SCENARIO.integrator, backend), repetitions)
    return BenchRecord(backend, n, median, repetitions, traj.stats.n_steps)


def _reduced_record(n: int, repetitions: int) -> BenchRecord:
    # core: the one-particle twin, which is exactly what the reduced backend
    # integrates after its O(N) setup
    params_n = _SCENARIO.params.with_rigid_pointer(n)
    twin = reduced_params(params_n)
    init = Configuration(0.0, twin.d_prime, 0.0, (0.0,))
    median, traj = _median_time(
        lambda: integrate_trajectory(init, twin, _SCENARIO.integrator, "reduced"), repetitions)

    reconstruct_s = None
    if n <= MAX_RECONSTRUCT_N:
        # the twin's pointer coordinate IS Sigma_hat' of the N-particle system
        thin = slice(0, traj.n_samples, max(1, traj.n_samples // 8))
        t_thin = traj.t[thin]
        sig_thin = traj.sigma_hat[thin]
        z0 = np.full(n, sig_thin[0] / math.sqrt(n))
        t0 = time.perf_counter()
        reconstruct_pointers(t_thin, sig_thin, z0, params_n)
        reconstruct_s = time.perf_counter() - t0
    return BenchRecord("reduced", n, median, repetitions, traj.stats.n_steps, reconstruct_s)


def run_bench(n_list, backends=("reduced", "full-analytic"),
              repetitions: int = 3) -> BenchReport:
    """Median single-trajectory times per (backend, N) from the slit center."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n_list must hold positive integers")
    if not backends:
        raise ValueError("backends must name at least one backend")

    records = []
    for backend in backends:
        for n in ns:
            if backend == "reduced":
                records.append(_reduced_record(n, repetitions))
            else:
                records.append(_full_record(backend, n, repetitions))

    reduced_times = [r.median_core_s for r in records if r.backend == "reduced"]
    if len(reduced_times) >= 2:
        ratio = max(reduced_times) / min(reduced_times)
        report = BenchReport(tuple(records), ratio, ratio < 2.0)
    else:
        report = BenchReport(tuple(records), None, None)
    return report
