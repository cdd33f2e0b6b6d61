"""Acceptance gate: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Budgets are wall-clock upper bounds on a
desktop-class machine; tolerances are part of the contract and must not
be loosened here.

Criteria 1, 4, 8 and 9 are the ``bohmsim validate`` suites
backend-equivalence, y-oracle, tau-scaling and mirror-symmetry, called at
their defaults, so each of those contracts has one implementation and runs
once per session.  ``tests/test_validate.py`` checks that ``SUITES`` maps
each name to these same functions and pins the tolerances in their
defaults.  Criterion 2 keeps its own launches rather than call the
sqrtn-equivalence suite: its pointer starts come from ``spread_z0`` and
sum to Sigma_hat'(0) = 0, so its N = 1 launch starts at Z' = 0.0, where
the suite's starts at 0.1.

The fig4 preset ensemble is integrated once per session, by the
``fig4_ensemble`` fixture, and criteria 4 and 9 get it from there
(``serve_fig4_ensemble``).  Criterion 6's N = 1 and 10 sweep is the
``fig4_centred_sweep`` fixture, which ``test_analysis`` also reads; its
wall time counts against the criterion's budget.
"""

import math
import time

import numpy as np

from bohmsim.analysis import classify_ensemble, surreal_fraction_vs_N
from bohmsim.bench import run_bench
from bohmsim.integrate import EnsembleSpec, ZInit, integrate_trajectory, run_ensemble
from bohmsim.model import Configuration
from bohmsim.scenario import preset
from bohmsim.validate import (check_backend_equivalence, check_mirror_symmetry,
                              check_tau_scaling, check_y_oracle)

from conftest import fig4_n_particles, spread_z0


def report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail}")
    assert passed, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_backend_equivalence():
    t0 = time.perf_counter()
    ok, detail = check_backend_equivalence()
    elapsed = time.perf_counter() - t0
    report(1, "backend equivalence", ok and elapsed < 10.0,
           f"{detail}; {elapsed:.1f}s (budget 10s)")


def test_criterion_02_sqrt_n_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 4, 9, 16):
        params = fig4_n_particles(n)
        init = Configuration(0.0, params.d_prime + 0.2, 0.0, spread_z0(n))
        full = integrate_trajectory(init, params, backend="full-analytic")
        red = integrate_trajectory(init, params, backend="reduced")
        worst = max(worst,
                    float(np.max(np.abs(full.x - red.x))),
                    float(np.max(np.abs(full.sigma_hat - red.sigma_hat))))
    elapsed = time.perf_counter() - t0
    report(2, "sqrt(N) reduction", worst <= 1e-5 and elapsed < 60.0,
           f"max |full - reduced| = {worst:.2e} (tol 1e-5); {elapsed:.1f}s (budget 60s)")


def test_criterion_03_pointer_reconstruction():
    params = fig4_n_particles(5)
    init = Configuration(0.0, params.d_prime - 0.4, 0.0, spread_z0(5, sigma_hat0=0.2))
    full = integrate_trajectory(init, params, backend="full-analytic")
    red = integrate_trajectory(init, params, backend="reduced")
    deviation = float(np.max(np.abs(full.z - red.z)))
    closure = float(np.max(np.abs(red.z.sum(axis=1) / math.sqrt(5) - red.sigma_hat)))
    report(3, "pointer reconstruction", deviation <= 1e-6 and closure <= 1e-12,
           f"max |Z_full - Z_reconstructed| = {deviation:.2e} (tol 1e-6), "
           f"closure = {closure:.2e} (tol 1e-12)")


def test_criterion_04_y_channel_oracle(serve_fig4_ensemble):
    ok, detail = check_y_oracle()
    report(4, "Y-channel closed form", ok, detail)


def test_criterion_05_no_crossing_and_fast_crossing():
    t0 = time.perf_counter()
    fig2 = classify_ensemble(run_ensemble(preset("fig2").ensemble, preset("fig2").params))
    fig3 = classify_ensemble(run_ensemble(preset("fig3").ensemble, preset("fig3").params))
    elapsed = time.perf_counter() - t0
    bounces = sum(v.bounced for v in fig2.verdicts)
    crossings = sum(v.crossed_plane for v in fig3.verdicts)
    report(5, "no-crossing / fast crossing",
           bounces == 18 and crossings == 18 and elapsed < 30.0,
           f"uncoupled: {bounces}/18 bounce, fast pointer: {crossings}/18 cross; "
           f"{elapsed:.1f}s (budget 30s)")


def test_criterion_06_surreal_fraction_trend(fig4_centred_sweep):
    rows, elapsed = fig4_centred_sweep
    centered = dict(rows)
    t0 = time.perf_counter()
    offset = dict(surreal_fraction_vs_N(preset("fig4").params, [200], sigma_hat0=0.3))
    elapsed += time.perf_counter() - t0
    ok = (centered[1] >= 0.7 and centered[10] < centered[1]
          and offset[200] <= 0.1 and elapsed < 120.0)
    report(6, "surrealistic fraction vs N", ok,
           f"bounce(N=1)={centered[1]:.3f} (>=0.7), bounce(N=10)={centered[10]:.3f} "
           f"(< N=1), bounce(N=200, Sigma0=0.3)={offset[200]:.3f} (<=0.1); "
           f"{elapsed:.1f}s (budget 120s)")


def test_criterion_07_predestination():
    params = fig4_n_particles(10)
    spec = EnsembleSpec(z_init=ZInit.common(1.0 / math.sqrt(10)), backend="reduced")
    summary = classify_ensemble(run_ensemble(spec, params))
    report(7, "predestination", summary.downward_fraction >= 0.9,
           f"downward fraction = {summary.downward_fraction:.3f} (>= 0.9) "
           f"at Sigma_hat'(0) = 1, N = 10")


def test_criterion_08_tau_scaling():
    t0 = time.perf_counter()
    ok, detail = check_tau_scaling()
    elapsed = time.perf_counter() - t0
    report(8, "tau ~ N^(-1/2)", ok and elapsed < 60.0, f"{detail}; {elapsed:.1f}s (budget 60s)")


def test_criterion_09_mirror_symmetry(serve_fig4_ensemble):
    ok, detail = check_mirror_symmetry()
    report(9, "mirror symmetry", ok, detail)


def test_criterion_10_performance():
    t0 = time.perf_counter()
    bench = run_bench([1, 10**4, 10**6], backends=("reduced",), repetitions=3)
    ratio = bench.reduced_core_ratio
    params = fig4_n_particles(50)
    t1 = time.perf_counter()
    trajs = run_ensemble(EnsembleSpec(backend="full-analytic"), params)
    full_elapsed = time.perf_counter() - t1
    ok = ratio < 2.0 and full_elapsed < 60.0 and len(trajs) == 18
    report(10, "performance scaling", ok,
           f"reduced core max/min = {ratio:.2f} over N=(1, 1e4, 1e6) (< 2), "
           f"full N=50 ensemble = {full_elapsed:.1f}s (budget 60s); "
           f"total {time.perf_counter() - t0:.1f}s")
