"""Classification, empty-wave ratios and the tau ~ N^(-1/2) law."""

import math

import numpy as np
import pytest

from bohmsim import analysis, integrate
from bohmsim.analysis import (DegenerateFit, ThresholdNotReached, classify, classify_ensemble,
                              empty_wave_ratio, surreal_fraction_vs_N, tau_scaling_fit,
                              threshold_crossing_times)
from bohmsim.integrate import Trajectory, crossing_time
from bohmsim.model import Configuration, ModeError, ScenarioParams, fast_pointer_E
from bohmsim.reduced import reduced_params
from bohmsim.rk45 import SolverStats
from bohmsim.scenario import preset


def synthetic_trajectory(t, x, params, z=None, degenerate=False) -> Trajectory:
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    n = params.n_particles
    z = np.zeros((t.size, n)) if z is None else np.asarray(z, dtype=float)
    sqrt_n = math.sqrt(n) if n else 1.0
    return Trajectory(
        params=params, backend="full-analytic",
        initial=Configuration(0.0, float(x[0]), 0.0, tuple(z[0])),
        t=t, x=x, y=t.copy(), z=z, sigma_hat=z.sum(axis=1) / sqrt_n,
        log_omega=np.zeros(t.size), delta_s=np.zeros(t.size),
        stats=SolverStats(), degenerate=degenerate)


class TestClassify:
    def test_constant_downward_crossing(self, fig4_params):
        t = np.linspace(0.0, 8.0, 50)
        traj = synthetic_trajectory(t, fig4_params.d_prime - t, fig4_params)
        v = classify(traj)
        assert v.initial_slit == "upper"
        assert v.crossed_plane and not v.bounced
        assert v.final_direction == -1

    def test_bounce_detected(self, fig4_params):
        t = np.linspace(0.0, 8.0, 50)
        traj = synthetic_trajectory(t, 1.0 + (t - 4.0) ** 2 / 8.0, fig4_params)
        v = classify(traj)
        assert v.bounced and v.final_direction == 1

    def test_too_short_rejected(self, fig4_params):
        t = np.linspace(0.0, 0.5 * 7.5 / 2.5, 10)  # shorter than t_cross = 3
        with pytest.raises(ValueError, match="packet crossing time"):
            classify(synthetic_trajectory(t, 3.0 - t, fig4_params))

    def test_horizon_refused_just_short_of_the_crossing(self, fig4_params):
        # no engine run ends before t'_cross, but a hand-built trajectory can
        t_cross = crossing_time(fig4_params)
        t = np.linspace(0.0, t_cross, 50)
        assert not classify(synthetic_trajectory(t, 3.0 - t, fig4_params)).bounced
        t[-1] = np.nextafter(t_cross, 0.0)
        with pytest.raises(ValueError, match="packet crossing time"):
            classify(synthetic_trajectory(t, 3.0 - t, fig4_params))

    def test_degenerate_rejected(self, fig4_params):
        t = np.linspace(0.0, 8.0, 50)
        traj = synthetic_trajectory(t, 3.0 - t, fig4_params, degenerate=True)
        with pytest.raises(ValueError):
            classify(traj)

    def test_mirror_invariance_of_verdicts(self, fig4_ensemble):
        summary = classify_ensemble(fig4_ensemble)
        ups = [v for v in summary.verdicts if v.initial_slit == "upper"]
        los = [v for v in summary.verdicts if v.initial_slit == "lower"]
        assert [v.bounced for v in ups] == [v.bounced for v in los]
        assert [v.final_direction for v in ups] == [-v.final_direction for v in los]

    def test_degenerate_excluded_from_fractions(self, fig4_params):
        t = np.linspace(0.0, 8.0, 50)
        good = synthetic_trajectory(t, 3.0 - t, fig4_params)
        bad = synthetic_trajectory(t[:5], 3.0 - t[:5], fig4_params, degenerate=True)
        summary = classify_ensemble([good, bad])
        assert summary.excluded == 1
        assert summary.crossing_fraction == 1.0


class TestEmptyWaveRatio:
    def test_initial_ratio_is_test_particle_only(self, fig4_params):
        t = np.array([0.0, 1.0])
        x0 = fig4_params.d_prime
        traj = synthetic_trajectory(t, np.array([x0, x0]), fig4_params)
        # hand the trajectory its true branch diagnostics at t = 0
        report = empty_wave_ratio(traj, fig4_params)
        assert report.k_pointer[0] == 1.0

    def test_exact_ratio_suppressed_on_drift(self, fig3_params):
        # fast pointer: the trajectory rides its launch branch for the whole
        # run and the pointer drifts with it (<Z> dz > 0), so the left-behind
        # branch must stay suppressed throughout
        from bohmsim.integrate import integrate_trajectory
        init = Configuration(0.0, fig3_params.d_prime, 0.0, (0.0,))
        traj = integrate_trajectory(init, fig3_params)
        assert np.all(traj.z[traj.t > 0, 0] > 0.0)
        report = empty_wave_ratio(traj, fig3_params)
        assert np.all(report.k_exact <= 1.0 + 1e-12)
        assert np.all(report.k_pointer <= 1.0 + 1e-12)
        assert np.all(report.k_pointer > 0.0)

    def test_tau_value_and_modes(self, fig4_params):
        t = np.array([0.0, 1.0])
        traj = synthetic_trajectory(t, np.array([3.0, 3.0]), fig4_params)
        report = empty_wave_ratio(traj, fig4_params)
        gamma = 10.0 * fig4_params.mu * fig4_params.R**2 / (fig4_params.r**2 * fig4_params.xi_y)
        assert report.tau == pytest.approx(1.0 / gamma, rel=1e-12)
        with pytest.raises(ModeError):
            p2 = ScenarioParams(10, 10, 1, 0.2, 1, 3, ((1, 10.0, 0.0), (1, 0.0, 10.0)))
            empty_wave_ratio(synthetic_trajectory(t, np.array([3.0, 3.0]), p2), p2)


class TestTauScaling:
    def test_exponent_minus_half(self, fig3_params):
        slope = tau_scaling_fit(fig3_params, [4, 16, 64, 256], 1e-3)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_degenerate_n_list(self, fig3_params):
        with pytest.raises(DegenerateFit):
            tau_scaling_fit(fig3_params, [8, 8, 8, 8], 1e-3)
        with pytest.raises(DegenerateFit):
            tau_scaling_fit(fig3_params, [4, 5, 6, 7], 1e-3)

    def test_threshold_one_crosses_immediately(self, fig3_params):
        times = threshold_crossing_times(fig3_params, [4, 16, 64, 256], 1.0)
        assert times == [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(DegenerateFit):
            tau_scaling_fit(fig3_params, [4, 16, 64, 256], 1.0)

    def test_threshold_never_reached(self, fig3_params):
        with pytest.raises(ThresholdNotReached):
            threshold_crossing_times(fig3_params, [4], 1e-300)

    def test_threshold_bounds(self, fig3_params):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                threshold_crossing_times(fig3_params, [4], bad)


@pytest.mark.parametrize("sweep", [
    lambda p: surreal_fraction_vs_N(p, [0]),
    lambda p: threshold_crossing_times(p, [0], 1e-3),
], ids=["surreal_fraction_vs_N", "threshold_crossing_times"])
def test_zero_particle_pointer_refused_naming_n(sweep):
    # a rigid pointer needs n >= 1; fig4 is single-pointer, so not a ModeError
    with pytest.raises(ValueError, match="n=0") as info:
        sweep(preset("fig4").params)
    assert not isinstance(info.value, ModeError)


def test_n_sweeps_reconstruct_at_most_one_pointer(monkeypatch):
    # both sweeps run the one-particle twin, so their cost does not grow with N
    seen = []
    launch = integrate.integrate_trajectory

    def spy(init, params, *args, **kwargs):
        seen.append(params.n_particles)
        return launch(init, params, *args, **kwargs)

    for module in (analysis, integrate):  # direct launches, and those of run_ensemble
        monkeypatch.setattr(module, "integrate_trajectory", spy)
    threshold_crossing_times(preset("fig3").params, [4, 10**4], 1e-3)
    surreal_fraction_vs_N(preset("fig4").params, [10**4])
    assert seen and max(seen) <= 1


class TestSurrealFractions:
    def test_slow_pointer_required(self, fig3_params):
        with pytest.raises(ValueError):
            surreal_fraction_vs_N(fig3_params, [1])

    def test_guard_reads_e_at_n_equal_1(self, fig3_params, fig4_centred_sweep):
        # E_eff = E sqrt(N) grows with N, and the sweep rebuilds the pointer at each N:
        # fig12's base (its own E_eff 1.697) gives fig4's sweep; fig3's (E = 3) is refused
        fig12 = preset("fig12").params
        assert fast_pointer_E(reduced_params(fig12)) == pytest.approx(1.697, abs=5e-4)
        assert fast_pointer_E(fig12) == pytest.approx(0.12, rel=1e-12)
        assert surreal_fraction_vs_N(fig12, [1, 10], sigma_hat0=0.0) == fig4_centred_sweep[0]
        with pytest.raises(ValueError, match="E < 1"):
            surreal_fraction_vs_N(fig3_params, [1])

    def test_fraction_decreases_with_n(self, fig4_params, fig4_centred_sweep):
        # N = 1 and 10 are criterion 6's sweep, on the same inputs
        rows = fig4_centred_sweep[0] + surreal_fraction_vs_N(fig4_params, [200])
        fractions = [f for _, f in rows]
        assert fractions[0] >= 0.7
        assert fractions[1] < fractions[0]
        assert fractions == sorted(fractions, reverse=True)
