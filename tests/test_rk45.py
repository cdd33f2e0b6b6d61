"""The DOPRI5 stepper: dense output, sample-time validation, non-finite stages, counts."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bohmsim import integrate
from bohmsim.analysis import classify
from bohmsim.integrate import integrate_trajectory, run_ensemble
from bohmsim.model import Configuration, NodeError
from bohmsim.rk45 import H_FLOOR, IntegrationAbort, solve
from bohmsim.scenario import preset
from conftest import deadline

# y' = cubic(t) per component; the quartic interpolant reproduces y exactly
_COEF = np.array([[1.0, -2.0, 3.0, -0.5], [0.3, 0.7, -1.1, 2.0]])


def _cubic_rhs(t, y):
    return _COEF @ np.array([1.0, t, t * t, t**3])


def _quartic(t, y0):
    t = np.asarray(t)[:, None]
    powers = np.concatenate([t, t**2 / 2, t**3 / 3, t**4 / 4], axis=1)
    return y0 + powers @ _COEF.T


class TestDenseOutput:
    def test_exact_for_cubic_field(self):
        y0 = np.array([0.5, -1.0])
        # four steps of 0.25: ten samples inside each step, t0 and t_end included
        samples = np.linspace(0.0, 1.0, 41)
        res = solve(_cubic_rhs, 0.0, y0, 1.0, samples, max_step=0.25, first_step=0.25)
        assert res.stats.n_steps == 4
        assert np.array_equal(res.t, samples)
        assert res.y[0].tolist() == y0.tolist()
        assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12

    def test_samples_in_last_step_only(self):
        y0 = np.array([0.0, 0.0])
        samples = np.array([0.9, 0.95, 0.99, 1.0])
        res = solve(_cubic_rhs, 0.0, y0, 1.0, samples, max_step=0.25, first_step=0.25)
        assert np.array_equal(res.t, samples)
        assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12

    def test_sample_just_past_t_end_is_served(self):
        y0 = np.array([0.5, -1.0])
        samples = [0.0, 0.5, 1.0 + 5e-13]
        res = solve(_cubic_rhs, 0.0, y0, 1.0, samples, max_step=0.25)
        assert res.t.tolist() == samples
        assert not res.degenerate
        assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12

    @pytest.mark.parametrize("samples", [[0.0, 0.7, 0.3, 1.0], [0.0, 0.5, 0.5, 1.0],
                                         [0.0, float("nan"), 1.0]])
    def test_unordered_samples_refused(self, samples):
        with pytest.raises(ValueError, match="ascending"):
            solve(_cubic_rhs, 0.0, np.zeros(2), 1.0, samples)

    @pytest.mark.parametrize("samples", [[-0.1, 0.5], [0.0, 1.0 + 1e-9]])
    def test_samples_outside_span_refused(self, samples):
        with pytest.raises(ValueError, match="within"):
            solve(_cubic_rhs, 0.0, np.zeros(2), 1.0, samples)


class TestSettingsRefused:
    @pytest.mark.parametrize("bad", [dict(rtol=math.nan), dict(atol=math.nan),
                                     dict(first_step=math.nan), dict(max_step=math.nan),
                                     dict(rtol=0.0), dict(atol=math.inf),
                                     dict(first_step=-0.1), dict(max_step=0.0)],
                             ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
    def test_refused_at_entry(self, bad):
        # a NaN step size never falls below H_FLOOR: without the entry check this hangs
        with deadline(10), pytest.raises(ValueError, match="must be positive"):
            solve(lambda t, y: -y, 0.0, [1.0], 1.0, [0.0, 1.0], **bad)


class TestNonFiniteStages:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_abort_at_floor_without_passing_state_to_rhs(self, bad):
        seen = []

        def rhs(t, y):
            seen.append((t, y.copy()))
            return np.full_like(y, bad) if t > 0.5 else np.ones_like(y)

        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning on the way to the abort
            with pytest.raises(IntegrationAbort):
                solve(rhs, 0.0, np.zeros(3), 1.0, [0.0, 1.0], max_step=0.1)
        assert all(np.isfinite(y).all() for _, y in seen)
        # the step was halved down to the floor just short of the bad region
        reached = max(t for t, _ in seen if t <= 0.5)
        assert 0.5 - reached < 1e3 * H_FLOOR


class TestSolverCounts:
    def test_rhs_evals_match_a_counting_wrapper(self, monkeypatch):
        calls = []
        results = []

        def counted_solve(rhs, *args, **kwargs):
            def counting(t, y):
                calls[-1] += 1
                return rhs(t, y)

            calls.append(0)
            res = solve(counting, *args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(integrate, "solve", counted_solve)
        sc = preset("fig4")
        run_ensemble(sc.ensemble, sc.params, sc.integrator)
        assert len(results) == 18
        assert [r.stats.n_rhs_evals for r in results] == calls
        assert any(r.stats.n_rejected for r in results)

    def test_fig3_steps_at_the_cap(self):
        sc = preset("fig3")
        init = Configuration(0.0, sc.params.d_prime, 0.0, (0.0,))
        stats = integrate_trajectory(init, sc.params, sc.integrator).stats
        assert (stats.n_capped, stats.n_steps) == (99, 102)
        assert stats.h_max == sc.integrator.resolve(sc.params)[2]
        assert 0 < stats.h_min < stats.h_max

    def test_no_cap_no_capped_steps(self):
        res = solve(_cubic_rhs, 0.0, np.zeros(2), 1.0, [1.0])
        assert res.stats.n_capped == 0

    def test_no_accepted_step_reads_zero(self):
        def rhs(t, y):
            if t > 0.0:
                raise NodeError(0.0)
            return -y

        res = solve(rhs, 0.0, np.ones(2), 1.0, [0.0, 1.0], first_step=0.1)
        assert res.degenerate and res.stats.n_steps == 0
        assert (res.stats.h_min, res.stats.h_max) == (0.0, 0.0)


class TestStageBuffer:
    """Stage rows live in one reused buffer; nothing may alias it across steps."""

    def test_exponential_at_every_sample(self):
        grid = np.linspace(0.0, 1.0, 101)
        res = solve(lambda t, y: y, 0.0, [1.0], 1.0, grid, rtol=1e-10, atol=1e-12)
        assert np.array_equal(res.t, grid)
        assert np.max(np.abs(res.y[:, 0] - np.exp(grid))) <= 1e-9

    def test_rhs_reusing_its_output_array(self):
        def damped_pendulum(out):
            def rhs(t, y):
                out[0] = y[1]
                out[1] = -math.sin(y[0]) - 0.3 * y[1] * math.cos(t)
                return out
            return rhs

        shared = damped_pendulum(np.empty(2))
        fresh = damped_pendulum(np.empty(2))
        y0 = np.array([2.5, 0.0])
        grid = np.linspace(0.0, 20.0, 97)
        a = solve(shared, 0.0, y0, 20.0, grid, rtol=1e-6)
        b = solve(lambda t, y: fresh(t, y).copy(), 0.0, y0, 20.0, grid, rtol=1e-6)
        assert a.stats.n_rejected > 0
        assert a.stats == b.stats
        assert np.array_equal(a.t, b.t)
        assert a.y.tobytes() == b.y.tobytes()
        assert y0.tolist() == [2.5, 0.0]


class TestStrideIndependence:
    """The output grid never steers the stepper: dense output only reads its steps."""

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig7"])
    def test_same_steps_verdicts_and_shared_samples(self, name):
        sc = preset(name)
        t_end = sc.integrator.resolve(sc.params)[0]
        runs = {}
        for div in (16, 256, 4096):
            opts = replace(sc.integrator, stride=t_end / div)
            runs[div] = run_ensemble(sc.ensemble, sc.params, opts)
        fine = runs[4096]
        for div in (16, 256):
            for a, b in zip(runs[div], fine):
                sa, sb = a.stats, b.stats
                assert (sa.n_steps, sa.n_rejected, sa.n_node_backoffs) == \
                       (sb.n_steps, sb.n_rejected, sb.n_node_backoffs)
                assert classify(a) == classify(b)
                idx = np.searchsorted(b.t, a.t)
                assert np.array_equal(b.t[idx], a.t)
                for col in ("x", "y", "z", "log_omega", "delta_s"):
                    assert np.array_equal(getattr(b, col)[idx], getattr(a, col)), col
