"""Wall-clock comparison of the trajectory backends vs pointer size N.

Full-numeric integrates N+2 coupled equations, so its cost grows with N
through every slope's finite-difference stencil.  Both analytic backends step
the pair (X', beta) of ``rk45``'s pair form: full-analytic's cost grows with N
only through the O(N) work once per run (set-up, Z' at the samples and the
diagnostics), and the reduced backend, whose pointer is Sigma_hat' alone, must
not depend on N.  That is the headline check reported here.  Pointer reconstruction is O(N) per output sample and is timed
separately on a thinned sample grid (and skipped above
``MAX_RECONSTRUCT_N``, where the arrays alone would dominate).

The bench scenario is preset ``fig3`` with its rigid pointer resized to N:
the fast-pointer base (R = 1, Xi = 10, E = 3), whose reduced dynamics keep
the same character at any N, so timing differences reflect backend cost,
not a change of physics.  Every trajectory starts at the upper slit centre
with all Z'_n = 0 and runs under the preset's integrator options.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .integrate import ZInit, integrate_trajectory
from .model import Configuration
from .reduced import common_start, reconstruct_pointers, reduced_params
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
    rhs_evals: int                       # right-hand-side calls, rejected steps' included
    reconstruct_s: float | None = None   # reduced backend only, thinned grid


@dataclass(frozen=True)
class BenchReport:
    records: tuple[BenchRecord, ...]
    reduced_core_ratio: float | None     # max/min reduced core time
    reduced_n_independent: bool | None   # ratio < 2


def _timed_run(backend: str, params_n):
    """The one run of a (backend, N) case that is timed, as a callable."""
    # the reduced backend's core is the one-particle twin, which is exactly what it
    # integrates after its O(N) setup
    params = reduced_params(params_n) if backend == "reduced" else params_n
    init = Configuration(0.0, params.d_prime, 0.0, ZInit.common().draw(params.n_particles))
    return lambda: integrate_trajectory(init, params, _SCENARIO.integrator, backend)


def _reconstruct_s(traj, params_n) -> float | None:
    """Seconds to rebuild all N pointers of a reduced run on a thinned sample grid."""
    n = params_n.n_particles
    if n > MAX_RECONSTRUCT_N:
        return None
    # the twin's pointer coordinate IS Sigma_hat' of the N-particle system
    thin = slice(0, traj.n_samples, max(1, traj.n_samples // 8))
    t_thin = traj.t[thin]
    sig_thin = traj.sigma_hat[thin]
    z0 = np.full(n, common_start(sig_thin[0], n))
    t0 = time.perf_counter()
    reconstruct_pointers(t_thin, sig_thin, z0, params_n)
    return time.perf_counter() - t0


def run_bench(n_list, backends, repetitions: int) -> BenchReport:
    """Median single-trajectory times per (backend, N) from the slit center.

    Every case runs once untimed first.  The timed repetitions then go round
    robin, one of every (backend, N) per pass, so that a slow spell of the
    machine slows every N alike rather than the cases timed during it.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n_list must hold positive integers")
    if not backends:
        raise ValueError("backends must name at least one backend")

    cases = [(backend, _SCENARIO.params.with_rigid_pointer(n))
             for backend in backends for n in ns]
    runs, stats, reconstruct = [], [], []
    for backend, params_n in cases:
        run = _timed_run(backend, params_n)
        traj = run()   # warm-up, untimed; every run of a case gives these same bits
        runs.append(run)
        stats.append(traj.stats)
        reconstruct.append(_reconstruct_s(traj, params_n) if backend == "reduced" else None)
    times = [[] for _ in runs]
    for _ in range(repetitions):
        for run, case_times in zip(runs, times):
            t0 = time.perf_counter()
            run()
            case_times.append(time.perf_counter() - t0)

    records = [BenchRecord(backend, params_n.n_particles, sorted(ts)[len(ts) // 2],
                           repetitions, st.n_steps, st.n_rhs_evals, rec_s)
               for (backend, params_n), ts, st, rec_s in zip(cases, times, stats, reconstruct)]
    reduced_times = [r.median_core_s for r in records if r.backend == "reduced"]
    if len(reduced_times) >= 2:
        ratio = max(reduced_times) / min(reduced_times)
        report = BenchReport(tuple(records), ratio, ratio < 2.0)
    else:
        report = BenchReport(tuple(records), None, None)
    return report
