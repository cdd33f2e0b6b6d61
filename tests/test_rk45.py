"""The DOPRI5 stepper: dense output, sample-time validation, non-finite stages, counts.

``solve`` steps a state in Python floats when the right-hand side answers a
tuple of three floats, with its block held as coefficients when it answers the
block form's (core, lin, basis), and in its array buffer otherwise.  The tests
of each stepper behaviour run one three-component system in every form
(``conftest.every_form``) and check that each run reached the form it targets.
"""

import itertools
import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from bohmsim import integrate, rk45
from bohmsim._kernel import GuidanceKernel
from bohmsim.integrate import integrate_trajectory, run_ensemble, sample_initials
from bohmsim.model import Configuration, NodeError
from bohmsim.rk45 import H_FLOOR, IntegrationAbort, solve
from bohmsim.scenario import preset, with_n_particles
from conftest import Form, every_form, deadline

# y' = cubic(t) per component; the quartic interpolant reproduces y exactly
_COEF = np.array([[1.0, -2.0, 3.0, -0.5], [0.3, 0.7, -1.1, 2.0], [-0.4, 1.5, 0.2, -1.3]])


def _quartic(t, y0):
    t = np.asarray(t)[:, None]
    powers = np.concatenate([t, t**2 / 2, t**3 / 3, t**4 / 4], axis=1)
    return np.asarray(y0) + powers @ _COEF.T


def _cubic_rhs(t, y):
    return _COEF @ np.array([1.0, t, t * t, t**3])


class TestDenseOutput:
    def test_exact_for_cubic_field(self):
        y0 = [0.5, -1.0, 2.0]
        for rhs in every_form(_cubic_rhs):
            # steps of up to 0.25, most holding several samples; t0 and t_end included
            samples = np.linspace(0.0, 1.0, 41)
            res = solve(rhs, 0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert np.array_equal(res.t, samples)
            assert res.y[0].tolist() == y0
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

    def test_samples_in_last_step_only(self):
        y0 = [0.0, 0.0, 0.0]
        for rhs in every_form(_cubic_rhs):
            samples = np.array([0.9, 0.95, 0.99, 1.0])
            res = solve(rhs, 0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert np.array_equal(res.t, samples)
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

    def test_sample_just_past_t_end_is_served(self):
        y0 = [0.5, -1.0, 2.0]
        for rhs in every_form(_cubic_rhs):
            samples = [0.0, 0.5, 1.0 + 5e-13]
            res = solve(rhs, 0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert res.t.tolist() == samples
            assert not res.degenerate
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

    @pytest.mark.parametrize("samples", [[0.0, 0.7, 0.3, 1.0], [0.0, 0.5, 0.5, 1.0],
                                         [0.0, float("nan"), 1.0]])
    def test_unordered_samples_refused(self, samples):
        with pytest.raises(ValueError, match="ascending"):
            solve(_cubic_rhs, 0.0, np.zeros(3), 1.0, samples)

    @pytest.mark.parametrize("samples", [[-0.1, 0.5], [0.0, 1.0 + 1e-9]])
    def test_samples_outside_span_refused(self, samples):
        with pytest.raises(ValueError, match="within"):
            solve(_cubic_rhs, 0.0, np.zeros(3), 1.0, samples)


class TestSettingsRefused:
    @pytest.mark.parametrize("bad", [dict(rtol=math.nan), dict(atol=math.nan),
                                     dict(max_step=math.nan), dict(rtol=0.0),
                                     dict(atol=math.inf), dict(max_step=0.0)],
                             ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
    def test_refused_at_entry(self, bad):
        # a NaN step size never falls below H_FLOOR: without the entry check this hangs
        with deadline(10), pytest.raises(ValueError, match="must be positive"):
            solve(lambda t, y: -y, 0.0, [1.0], 1.0, [0.0, 1.0], **bad)

    @pytest.mark.parametrize("t0, t_end", [(0.0, math.nan), (0.0, math.inf), (0.0, 0.0),
                                           (1.0, 0.5), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_horizon_refused_at_entry(self, t0, t_end):
        # an infinite horizon lets h grow to inf, which halving never brings below H_FLOOR
        for rhs in every_form(lambda t, y: [-v for v in y], dim=2):
            with deadline(10), pytest.raises(ValueError, match="must be finite"):
                solve(rhs, t0, [1.0, 2.0], t_end, [])
            assert rhs.seen == []


class TestNonFiniteStages:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_abort_at_floor_without_passing_state_to_rhs(self, bad):
        for rhs in every_form(lambda t, y: [bad if t > 0.5 else 1.0] * 3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no RuntimeWarning on the way to the abort
                with pytest.raises(IntegrationAbort):
                    solve(rhs, 0.0, np.zeros(3), 1.0, [0.0, 1.0], max_step=0.1)
            assert rhs.reached()
            assert all(np.isfinite(y).all() for _, _, y in rhs.seen)
            # the step was halved down to the floor just short of the bad region
            reached = max(t for t, _, _ in rhs.seen if t <= 0.5)
            assert 0.5 - reached < 1e3 * H_FLOOR, rhs.answer

    @pytest.mark.parametrize("start", ["state", "slope", "step"])
    def test_non_finite_start_aborts_at_once(self, start, monkeypatch):
        # a NaN initial state, first slope or first step; a NaN step never compares
        # below H_FLOOR, so halving it would never end
        if start == "step":
            monkeypatch.setattr(rk45, "_initial_step", lambda *args: math.nan)
        bad = math.nan if start == "slope" else 1.0
        for dim in (2, 3, 4):
            y0 = [math.nan if start == "state" else 0.0] + [0.0] * (dim - 1)
            for rhs in every_form(lambda t, y: [bad] * dim, dim):
                with deadline(10), pytest.raises(IntegrationAbort):
                    solve(rhs, 0.0, y0, 1.0, [0.0, 1.0])
                assert all(np.isfinite(y).all() for _, _, y in rhs.seen)
                assert len(rhs.seen) == {"state": 0, "slope": 1, "step": 1}[start]


class _KickAtStage7:
    """y' = 0, but for the second of two calls in a row at one time: in a step, stage 7,
    the slope at the 5th-order solution.  It enters the error estimate only, so each
    attempt leaves y as it was and reads an error of about h * kick / (rtol |y| + atol)."""

    def __init__(self, kick: float):
        self.kick, self.last = kick, None

    def __call__(self, t, y):
        slope = [self.kick if t == self.last else 0.0, 0.0, 0.0]
        self.last = t
        return slope


class TestAborts:
    """The stepper's ways out of a run that cannot go on, on every form and unwarned."""

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(rk45, "MAX_STEPS", 5)
        for rhs in every_form(lambda t, y: [-v for v in y]):
            with pytest.raises(IntegrationAbort, match="step budget exceeded"):
                solve(rhs, 0.0, [1.0, 2.0, 3.0], 1.0, [0.0, 1.0], max_step=0.01)
            assert rhs.reached()

    def test_step_that_does_not_advance_t(self):
        # the float spacing at 2^60 is 256: a step of at most 1 leaves t where it was
        t0 = 2.0 ** 60
        for rhs in every_form(lambda t, y: [-v for v in y]):
            with deadline(10), pytest.raises(IntegrationAbort, match="does not advance"):
                solve(rhs, t0, [1.0, 2.0, 3.0], t0 + 4096.0, [t0], max_step=1.0)
            assert rhs.reached()

    # 1e300 is finite, but the error it gives overflows: in ``_error_norm``'s dot on arrays
    @pytest.mark.parametrize("kick", [math.nan, math.inf, -math.inf, 1e300])
    def test_non_finite_error_estimate_aborts_at_floor(self, kick):
        for rhs in every_form(_KickAtStage7(kick)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="non-finite error estimate"):
                    solve(rhs, 0.0, [1.0, 1.0, 1.0], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert all(np.isfinite(y).all() for _, _, y in rhs.seen)
            assert min(t for t, _, _ in rhs.seen[1:]) < 2 * H_FLOOR

    def test_rejections_below_the_floor_end_degenerate(self):
        for rhs in every_form(_KickAtStage7(1e10)):
            res = solve(rhs, 0.0, [1.0, 1.0, 1.0], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert res.degenerate
            assert (res.stats.n_steps, res.stats.h_max) == (0, 0.0)
            assert res.stats.n_rejected > 0
            assert res.t.tolist() == [0.0] and res.y.tolist() == [[1.0, 1.0, 1.0]]

    def test_slope_norm_overflow_aborts_at_once(self):
        # finite, but its norm against a tolerance of 1e-10 overflows
        for rhs in every_form(lambda t, y: [1e200, 0.0], dim=2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="slope norm overflows"):
                    solve(rhs, 0.0, [1.0, 1.0], 1.0, [0.0, 1.0])
            assert len(rhs.seen) == 1

    def test_overflowing_probe_state_aborts_unseen(self):
        # y' = y near the largest float: the starting-step probe y0 + h0 f0 overflows
        for rhs in every_form(lambda t, y: y, dim=2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="non-finite stage state"):
                    solve(rhs, 0.0, [1.79e308, 1.0], 1.0, [0.0, 1.0])
            assert len(rhs.seen) == 1

    def test_finite_stage_whose_sum_overflows_is_stepped(self):
        # the float path tests a stage's sum first; 1e308 + 1e308 overflows, yet each
        # component is finite, so the run goes on and rhs sees the state
        for rhs in every_form(lambda t, y: [0.0, 0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = solve(rhs, 0.0, [1e308, 1e308, 0.0], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert res.t.tolist() == [0.0, 1.0] and not res.degenerate
            assert res.y.tolist() == [[1e308, 1e308, 0.0]] * 2
            assert res.stats.n_rhs_evals == len(rhs.seen) > 2
            assert all(y.tolist() == [1e308, 1e308, 0.0] for _, _, y in rhs.seen)


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
        assert (stats.n_capped, stats.n_steps) == (49, 52)
        assert stats.h_max == integrate.time_grid(sc.params)[2]
        assert 0 < stats.h_min < stats.h_max

    def test_stats_hold_python_numbers_for_numpy_scalar_settings(self):
        # numpy scalars in, Python numbers out: the manifest writer's json.dumps takes them
        for rhs in every_form(_cubic_rhs):
            res = solve(rhs, np.float64(0.0), [0.5, -1.0, 2.0], np.float64(1.0), [0.0, 1.0],
                        rtol=np.float64(1e-8), atol=np.float32(1e-10), max_step=np.float64(0.5))
            stats = asdict(res.stats)
            assert stats["n_capped"] > 0
            assert [type(v) for v in stats.values()] == [int] * 5 + [float] * 2, rhs.answer
            json.dumps(stats)

    def test_no_cap_no_capped_steps(self):
        res = solve(_cubic_rhs, 0.0, np.zeros(3), 1.0, [1.0])
        assert res.stats.n_capped == 0

    def test_no_accepted_step_reads_zero(self):
        def rhs(t, y):
            if t > 0.0:
                raise NodeError(0.0)
            return -y

        res = solve(rhs, 0.0, np.ones(2), 1.0, [0.0, 1.0])
        assert res.degenerate and res.stats.n_steps == 0
        assert (res.stats.h_min, res.stats.h_max) == (0.0, 0.0)

    def test_start_on_a_node_is_degenerate_at_once(self):
        def rhs(t, y):
            raise NodeError(0.0)

        res = solve(rhs, 0.0, np.ones(2), 1.0, [0.0, 1.0])
        assert res.degenerate
        assert res.t.tolist() == [0.0] and res.y.tolist() == [[1.0, 1.0]]
        assert res.stats.n_rhs_evals == 1


class TestStageBuffer:
    """Stage rows live in one reused buffer; nothing may alias it across steps."""

    def test_exponential_at_every_sample(self):
        grid = np.linspace(0.0, 1.0, 101)
        for rhs in every_form(lambda t, y: y):
            res = solve(rhs, 0.0, [1.0, 1.0, 1.0], 1.0, grid, rtol=1e-10, atol=1e-12)
            assert rhs.reached()
            assert np.array_equal(res.t, grid)
            assert np.max(np.abs(res.y - np.exp(grid)[:, None])) <= 1e-9, rhs.answer

    def test_rhs_reusing_its_output_array(self):
        # two damped pendulums answering one reused array, so the array path's buffer
        def damped_pendulums(out):
            def rhs(t, y):
                for i in (0, 2):
                    out[i] = y[i + 1]
                    out[i + 1] = -math.sin(y[i]) - 0.3 * y[i + 1] * math.cos(t)
                return out
            return rhs

        shared = damped_pendulums(np.empty(4))
        fresh = damped_pendulums(np.empty(4))
        y0 = np.array([2.5, 0.0, -1.0, 0.5])
        grid = np.linspace(0.0, 20.0, 97)
        a = solve(shared, 0.0, y0, 20.0, grid, rtol=1e-6)
        b = solve(lambda t, y: fresh(t, y).copy(), 0.0, y0, 20.0, grid, rtol=1e-6)
        assert a.stats.n_rejected > 0
        assert a.stats == b.stats
        assert np.array_equal(a.t, b.t)
        assert a.y.tobytes() == b.y.tobytes()
        assert y0.tolist() == [2.5, 0.0, -1.0, 0.5]


def _pendulum_and_follower(t, y):
    """A damped pendulum (theta, omega) and a third component driven by it."""
    theta, omega, u = y[0], y[1], y[2]
    return (omega, -math.sin(theta) - 0.3 * omega * math.cos(t), theta * omega - 0.1 * u)


class TestTwoPaths:
    """The float, the array and the block form are one stepper: same steps, same samples."""

    def test_tuple_and_array_answers_agree(self):
        grid = np.linspace(0.0, 20.0, 97)
        forms = every_form(_pendulum_and_follower)
        a, *others = (solve(rhs, 0.0, (2.5, 0.0, 0.3), 20.0, grid, rtol=1e-6)
                      for rhs in forms[1:] + forms[:1])
        assert all(rhs.reached() for rhs in forms)
        assert a.stats.n_rejected > 0
        for f in others:
            assert (f.stats.n_steps, f.stats.n_rejected, f.stats.n_rhs_evals) == \
                   (a.stats.n_steps, a.stats.n_rejected, a.stats.n_rhs_evals)
            assert np.array_equal(f.t, a.t)
            # the stage sums round differently, and the controller carries that into h;
            # the follower grows to |u| = 448, so the bound is relative beyond |y| = 1
            assert np.max(np.abs(f.y - a.y) / np.maximum(1.0, np.abs(a.y))) <= 1e-10

    def test_narrow_and_duplicated_system_agree(self):
        # the narrow system answers a tuple (float path), its tiled copy an array
        y0 = (2.5, 0.0, 0.3)
        grid = np.linspace(0.0, 20.0, 97)
        narrow = solve(_pendulum_and_follower, 0.0, y0, 20.0, grid, rtol=1e-6)
        wide = solve(lambda t, y: np.tile(_pendulum_and_follower(t, y[:3]), 2),
                     0.0, y0 + y0, 20.0, grid, rtol=1e-6)
        n, w = narrow.stats, wide.stats
        assert n.n_rejected > 0
        assert (n.n_steps, n.n_rejected, n.n_rhs_evals) == (w.n_steps, w.n_rejected, w.n_rhs_evals)
        assert np.array_equal(narrow.t, wide.t)
        assert np.max(np.abs(wide.y - np.tile(narrow.y, 2))) <= 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_array_answer_steps_in_arrays_at_any_width(self, dim):
        # the answer, not the width, picks the form: -y on an array is an array
        handed = []

        def rhs(t, y):
            handed.append(type(y))
            return -y

        res = solve(rhs, 0.0, [1.0] * dim, 1.0, [0.0, 1.0])
        assert set(handed) == {np.ndarray}
        assert np.max(np.abs(res.y[-1] - math.exp(-1.0))) <= 1e-8

    @pytest.mark.parametrize("dim", [2, 4])
    def test_tuple_answer_of_other_width_steps_in_arrays(self, dim):
        # only a tuple of three floats is stepped in floats
        rhs = Form(tuple, lambda t, y: [-v for v in y])
        res = solve(rhs, 0.0, [1.0] * dim, 1.0, [0.0, 1.0])
        assert {kind for _, kind, _ in rhs.seen} == {np.ndarray}
        assert np.max(np.abs(res.y[-1] - math.exp(-1.0))) <= 1e-8

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_mirrored_launches_stay_mirrored_bit_for_bit(self, name):
        # negation commutes with the stage sums, and the N = 1 kernel is odd in (X', Z')
        sc = preset(name)
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        k = sc.ensemble.count_per_slit
        for up, lo in zip(trajs[:k], trajs[k:]):
            assert up.stats == lo.stats
            assert np.array_equal(up.x, -lo.x)
            assert np.array_equal(up.z, -lo.z)


def _seeded_fig4(n: int, seed: int):
    """fig4 at N = n with a seeded pointer draw, one launch per slit."""
    sc = with_n_particles(preset("fig4"), n)
    return replace(sc, ensemble=replace(sc.ensemble, count_per_slit=1,
                                        z_init=integrate.ZInit.gaussian(seed)))


# N >= 2 full-analytic runs: fig7 and fig8's two one-particle pointers, a rigid N = 3, and
# a seeded N = 100 draw whose launches keep clear of nodes (a near-node launch moves by
# far more than 1e-10 under any change of rounding)
BLOCK_CASES = {"fig7": preset("fig7"), "fig8": preset("fig8"),
               "fig4-n3": with_n_particles(preset("fig4"), 3),
               "fig4-n100-seed3": _seeded_fig4(100, 3)}


class TestBlockForm:
    """Full-analytic runs at N >= 2 step the pointer block as coefficients
    (``GuidanceKernel.block_velocity``); ``velocity`` still answers arrays there."""

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_matches_the_array_path(self, name):
        sc = BLOCK_CASES[name]
        kern = GuidanceKernel(sc.params)
        t_end, samples, max_step = integrate.time_grid(sc.params)
        rtol = sc.integrator.rel_tol
        for init in sample_initials(sc.ensemble, sc.params):
            y0 = init.state()
            assert type(kern.velocity(0.0, y0)) is np.ndarray
            a, b = (solve(rhs, 0.0, y0, t_end, samples, rtol=rtol, atol=rtol / 100,
                          max_step=max_step) for rhs in (kern.velocity, kern.block_velocity))
            assert (a.stats.n_steps, a.stats.n_rejected, a.stats.n_rhs_evals) == \
                   (b.stats.n_steps, b.stats.n_rejected, b.stats.n_rhs_evals)
            assert np.array_equal(a.t, b.t)
            assert np.max(np.abs(b.y - a.y) / np.maximum(1.0, np.abs(a.y))) <= 1e-10
            # and the block form is what the full-analytic backend steps
            traj = integrate_trajectory(init, sc.params, sc.integrator)
            assert np.array_equal(traj.x, b.y[:, 0]) and np.array_equal(traj.z, b.y[:, 2:])

    @pytest.mark.parametrize("n", [3, 100])
    def test_mirrored_launches_stay_mirrored_bit_for_bit(self, n):
        # (X', Z') -> (-X', -Z') on a rigid pointer: the core's v_x and a are odd, c_1
        # and b even, so every coefficient d is odd and g, e even
        sc = _seeded_fig4(n, 5)
        for init in sample_initials(sc.ensemble, sc.params):
            mirror = Configuration(0.0, -init.x, init.y, tuple(-np.array(init.z)))
            up, lo = (integrate_trajectory(c, sc.params, sc.integrator) for c in (init, mirror))
            assert up.stats == lo.stats and up.stats.n_rejected > 0
            assert np.array_equal(up.x, -lo.x)
            assert np.array_equal(up.y, lo.y)
            assert np.array_equal(up.z, -lo.z)


class TestStrideIndependence:
    """The output grid never steers the stepper: dense output only reads its steps."""

    @staticmethod
    def verdict(x):
        """Whether X' changed sign between samples, and its final direction, as ``classify``."""
        return bool(np.any(x[:-1] * x[1:] < 0.0) or np.any(x[1:] == 0.0)), np.sign(x[-1] - x[-2])

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig7"])
    def test_same_steps_verdicts_and_shared_samples(self, name):
        # the preset's launches, horizon and tolerances on three nested sample grids
        sc = preset(name)
        t_end, _, max_step = integrate.time_grid(sc.params)
        rtol = sc.integrator.rel_tol
        kern = GuidanceKernel(sc.params)
        # an N >= 2 kernel in arrays and in block form
        routes = [kern.velocity] + [kern.block_velocity] * (kern.n >= 2)
        for init, rhs in itertools.product(sample_initials(sc.ensemble, sc.params), routes):
            runs = {div: solve(rhs, 0.0, init.state(), t_end,
                               np.arange(div + 1) * (t_end / div),
                               rtol=rtol, atol=rtol / 100, max_step=max_step)
                    for div in (16, 256, 4096)}
            fine = runs[4096]
            for div in (16, 256):
                a, sa, sb = runs[div], runs[div].stats, fine.stats
                assert (sa.n_steps, sa.n_rejected, sa.n_node_backoffs) == \
                       (sb.n_steps, sb.n_rejected, sb.n_node_backoffs)
                assert self.verdict(a.y[:, 0]) == self.verdict(fine.y[:, 0])
                idx = np.searchsorted(fine.t, a.t)
                assert np.array_equal(fine.t[idx], a.t)
                assert np.array_equal(fine.y[idx], a.y)
