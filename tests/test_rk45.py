"""The DOPRI5 stepper: dense output, sample-time validation, non-finite stages, counts.

``solve`` steps (x, beta) in Python floats when the right-hand side answers the pair
form's (core, lin, basis), and the state in its array buffer otherwise.  The tests of
each stepper behaviour run one two-component system in every form
(``conftest.every_form``) and check that each run reached the form it targets.
"""

import itertools
import json
import math
import runpy
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from bohmsim import integrate, rk45
from bohmsim._kernel import GuidanceKernel
from bohmsim.integrate import integrate_trajectory, run_ensemble, sample_initials
from bohmsim.model import Configuration, NodeError
from bohmsim.reduced import reduced_params, sigma_hat_of
from bohmsim.rk45 import H_FLOOR, IntegrationAbort, solve
from bohmsim.scenario import preset, with_n_particles
from bohmsim.validate import random_configurations
from conftest import ROOT, Form, every_form, deadline, pair_rhs

# y' = cubic(t) per component; the quartic interpolant reproduces y exactly
_COEF = np.array([[1.0, -2.0, 3.0, -0.5], [-0.4, 1.5, 0.2, -1.3]])


def _quartic(t, y0):
    t = np.asarray(t)[:, None]
    powers = np.concatenate([t, t**2 / 2, t**3 / 3, t**4 / 4], axis=1)
    return np.asarray(y0) + powers @ _COEF.T


def _cubic_rhs(t, y):
    return _COEF @ np.array([1.0, t, t * t, t**3])


class TestDenseOutput:
    def test_exact_for_cubic_field(self):
        y0 = [0.5, 2.0]
        for rhs in every_form(_cubic_rhs):
            # steps of up to 0.25, most holding several samples; t0 and t_end included
            samples = np.linspace(0.0, 1.0, 41)
            res = rhs.solve(0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert np.array_equal(res.t, samples)
            assert res.y[0].tolist() == y0
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

    def test_samples_in_last_step_only(self):
        y0 = [0.0, 0.0]
        for rhs in every_form(_cubic_rhs):
            samples = np.array([0.9, 0.95, 0.99, 1.0])
            res = rhs.solve(0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert np.array_equal(res.t, samples)
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

    def test_sample_just_past_t_end_is_served(self):
        y0 = [0.5, 2.0]
        for rhs in every_form(_cubic_rhs):
            samples = [0.0, 0.5, 1.0 + 5e-13]
            res = rhs.solve(0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert res.t.tolist() == samples
            assert not res.degenerate
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

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
        for rhs in every_form(lambda t, y: [-v for v in y]):
            with deadline(10), pytest.raises(ValueError, match="must be finite"):
                rhs.solve(t0, [1.0, 2.0], t_end, [])
            assert rhs.seen == []


class TestNonFiniteStages:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_abort_at_floor_without_passing_state_to_rhs(self, bad):
        for rhs in every_form(lambda t, y: [bad if t > 0.5 else 1.0] * 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no RuntimeWarning on the way to the abort
                with pytest.raises(IntegrationAbort):
                    rhs.solve(0.0, np.zeros(2), 1.0, [0.0, 1.0], max_step=0.1)
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
                    rhs.solve(0.0, y0, 1.0, [0.0, 1.0])
                assert all(np.isfinite(y).all() for _, _, y in rhs.seen)
                assert len(rhs.seen) == {"state": 0, "slope": 1, "step": 1}[start]


class _KickAtStage7:
    """y' = 0, but for the second of two calls in a row at one time: in a step, stage 7,
    the slope at the 5th-order solution.  It enters the error estimate only, so each
    attempt leaves y as it was and reads an error of about h * kick / (rtol |y| + atol)."""

    def __init__(self, kick: float):
        self.kick, self.last = kick, None

    def __call__(self, t, y):
        slope = [self.kick if t == self.last else 0.0, 0.0]
        self.last = t
        return slope


class TestAborts:
    """The stepper's ways out of a run that cannot go on, on every form and unwarned."""

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(rk45, "MAX_STEPS", 5)
        for rhs in every_form(lambda t, y: [-v for v in y]):
            with pytest.raises(IntegrationAbort, match="step budget exceeded"):
                rhs.solve(0.0, [1.0, 3.0], 1.0, [0.0, 1.0], max_step=0.01)
            assert rhs.reached()

    def test_step_that_does_not_advance_t(self):
        # the float spacing at 2^60 is 256: a step of at most 1 leaves t where it was
        t0 = 2.0 ** 60
        for rhs in every_form(lambda t, y: [-v for v in y]):
            with deadline(10), pytest.raises(IntegrationAbort, match="does not advance"):
                rhs.solve(t0, [1.0, 3.0], t0 + 4096.0, [t0], max_step=1.0)
            assert rhs.reached()

    # 1e300 is finite, but the error it gives overflows: in the array path's dot
    @pytest.mark.parametrize("kick", [math.nan, math.inf, -math.inf, 1e300])
    def test_non_finite_error_estimate_aborts_at_floor(self, kick):
        for rhs in every_form(_KickAtStage7(kick)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="non-finite error estimate"):
                    rhs.solve(0.0, [1.0, 1.0], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert all(np.isfinite(y).all() for _, _, y in rhs.seen)
            assert min(t for t, _, _ in rhs.seen[1:]) < 2 * H_FLOOR

    def test_rejections_below_the_floor_end_degenerate(self):
        for rhs in every_form(_KickAtStage7(1e10)):
            res = rhs.solve(0.0, [1.0, 1.0], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert res.degenerate
            assert (res.stats.n_steps, res.stats.h_max) == (0, 0.0)
            assert res.stats.n_rejected > 0
            assert res.t.tolist() == [0.0] and res.y.tolist() == [[1.0, 1.0]]

    def test_slope_norm_overflow_aborts_at_once(self):
        # finite, but its norm against a tolerance of 1e-10 overflows
        for rhs in every_form(lambda t, y: [1e200, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="slope norm overflows"):
                    rhs.solve(0.0, [1.0, 1.0], 1.0, [0.0, 1.0])
            assert len(rhs.seen) == 1

    def test_overflowing_probe_state_aborts_unseen(self):
        # y' = y near the largest float: the starting-step probe y0 + h0 f0 overflows.  The
        # second component starts at 0, where the pair form's beta starts too, so that every
        # form's starting step reads the same state and slope
        for rhs in every_form(lambda t, y: y):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="non-finite stage state"):
                    rhs.solve(0.0, [1.79e308, 0.0], 1.0, [0.0, 1.0])
            assert len(rhs.seen) == 1

    def test_block_whose_pointer_overflows_aborts_at_floor(self):
        # Z' = Z, so Z = e^t Z0 overflows at t = log(1.8e308 / 1e308) = 0.59, while alpha =
        # e^t, lin . Z = 0.5 e^t and Sigma_hat' stay finite past t = 0.9: the pair form never
        # forms Z in a step, yet aborts there unwarned, as the array path does
        seen = []

        def core(t, x, u, w):
            seen.append((t, math.exp(t) * u + w))
            return 0.0, 1.0, 0.0, 0.0, math.exp(t)

        answers = {"pair": lambda t, y: (core, np.array([0.0, 1.0]), np.zeros((2, 2))),
                   "array": lambda t, y: seen.append((t, y[3])) or np.array([0.0, 0.0, *y[2:]])}
        for form, answer in answers.items():
            seen.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="non-finite stage state"):
                    solve(answer, 0.0, [0.0, 0.0, 1e308, 0.5], 1.0, [0.0, 0.5, 1.0])
            # the last attempts are at the floor, where e^t 1e308 reaches the largest float
            assert abs(seen[-1][0] - math.log(np.finfo(float).max / 1e308)) < 1e-6, form
            assert all(math.isfinite(zd) for _, zd in seen), form

    def test_finite_stage_whose_sum_overflows_is_stepped(self):
        # the pair form tests a stage's sum first; at the 5th-order solution x, the bound on
        # |Z| and Sigma_hat' are each 1e308 and their sum overflows, yet each part is
        # finite, so the run goes on and rhs sees the state
        for rhs in every_form(lambda t, y: [0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = rhs.solve(0.0, [1e308, 1e308], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert res.t.tolist() == [0.0, 1.0] and not res.degenerate
            assert res.y.tolist() == [[1e308, 1e308]] * 2
            assert res.stats.n_rhs_evals == len(rhs.seen) > 2
            assert all(y.tolist() == [1e308, 1e308] for _, _, y in rhs.seen)


def _pair_answer(core):
    """The pair form's answer for a state (x, y, z) whose pointer is z alone: lin . Z is
    alpha u + w, and z' is c z + a."""
    return lambda t, y: (core, np.ones(1), np.array([[1.0], [0.0]]))


class TestSolverCounts:
    def test_rhs_evals_match_a_counting_wrapper(self, monkeypatch):
        # fig4 and fig7 step in the pair form, from the kernel's pair answer, where each
        # call of its core is one evaluation
        calls = []
        results = []

        def counted_solve(rhs, *args, **kwargs):
            def counting(t, y):
                core, lin, basis = rhs(t, y)

                def counted_core(*state):
                    calls[-1] += 1
                    return core(*state)

                return counted_core, lin, basis

            calls.append(0)
            res = solve(counting, *args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(integrate, "solve", counted_solve)
        for name in ("fig4", "fig7"):
            sc = preset(name)
            results.clear()
            calls.clear()
            run_ensemble(sc.ensemble, sc.params, sc.integrator)
            assert len(results) == 2 * sc.ensemble.count_per_slit
            assert [r.stats.n_rhs_evals for r in results] == calls
            assert any(r.stats.n_rejected for r in results)

    # call 1 is the first slope, call 2 the starting-step probe, calls 3-8 the first
    # attempt's stages 2-7, and call 40 one of a later attempt
    @pytest.mark.parametrize("at", [1, 2, 3, 4, 5, 6, 7, 8, 40])
    def test_core_call_that_raises_is_counted(self, at):
        # the pair form counts its calls once per attempt, the one that raised included
        calls = []

        def core(t, x, u, w):
            calls.append((x, u + w))
            if len(calls) == at:
                raise NodeError(0.0)
            return -x, 0.0, -(u + w), 0.0, 1.0

        res = solve(_pair_answer(core), 0.0, [1.0, 2.0, 3.0], 1.0, [0.0, 1.0])
        assert res.stats.n_rhs_evals == len(calls) and len(calls) >= at
        assert res.degenerate == (at == 1)
        assert res.stats.n_node_backoffs == (at > 2)

    @pytest.mark.parametrize("at", [3, 4, 7])
    def test_non_finite_stage_is_counted(self, at):
        # the slope of call ``at`` (stages 2, 3 and 6 of the first attempt) makes the next
        # stage state infinite: the attempt ends before that state reaches the core
        calls = []

        def core(t, x, u, w):
            calls.append((x, u + w))
            return (math.inf if len(calls) == at else -x), 0.0, -(u + w), 0.0, 1.0

        res = solve(_pair_answer(core), 0.0, [1.0, 2.0, 3.0], 1.0, [0.0, 1.0])
        assert res.stats.n_rhs_evals == len(calls) > at
        assert all(map(math.isfinite, itertools.chain(*calls)))
        assert not res.degenerate and np.isfinite(res.y).all()

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
            res = rhs.solve(np.float64(0.0), [0.5, 2.0], np.float64(1.0), [0.0, 1.0],
                            rtol=np.float64(1e-8), atol=np.float32(1e-10), max_step=np.float64(0.5))
            stats = asdict(res.stats)
            assert stats["n_capped"] > 0
            assert [type(v) for v in stats.values()] == [int] * 5 + [float] * 2, rhs.answer
            json.dumps(stats)

    def test_no_cap_no_capped_steps(self):
        res = solve(_cubic_rhs, 0.0, np.zeros(2), 1.0, [1.0])
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
            res = rhs.solve(0.0, [1.0, 1.0], 1.0, grid, rtol=1e-10, atol=1e-12)
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


def _pendulum(t, y):
    """The damped pendulum (theta, omega) alone."""
    return _pendulum_and_follower(t, (*y, 0.0))[:2]


class TestTwoPaths:
    """The pair and the array form are one stepper: same steps, same samples."""

    def test_tuple_and_array_answers_agree(self):
        # the tuple answer steps in arrays, bit for bit as the array answer
        grid = np.linspace(0.0, 20.0, 97)
        forms = [Form(answer, _pendulum_and_follower) for answer in (tuple, np.ndarray)]
        u, a = (rhs.solve(0.0, (2.5, 0.0, 0.3), 20.0, grid, rtol=1e-6) for rhs in forms)
        assert all(rhs.reached() for rhs in forms)
        assert a.stats.n_rejected > 0
        assert u.stats == a.stats and u.y.tobytes() == a.y.tobytes()

    def test_narrow_and_duplicated_system_agree(self, monkeypatch):
        # the pendulum (theta, omega) in the pair form, and in arrays as (theta, 0, and omega
        # as four halves): the array norm reads (theta, Sigma_hat'), Sigma_hat' = (sum of the
        # halves)/2 = omega, as the pair norm reads (theta, omega), so both take the same
        # steps.  The starting step reads the stepped state, so both start from the pair run's
        initial_step, first = rk45._initial_step, []

        def shared_initial_step(*args):
            first.append(initial_step(*args))   # the probe is still made and counted
            return first[0]

        monkeypatch.setattr(rk45, "_initial_step", shared_initial_step)

        def wide_rhs(t, y):
            v = _pendulum(t, (y[0], 2.0 * y[2]))
            return np.array([v[0], 0.0, *[v[1] / 2.0] * 4])

        grid = np.linspace(0.0, 20.0, 97)
        narrow = Form(Form.PAIR, _pendulum).solve(0.0, (2.5, 0.3), 20.0, grid, rtol=1e-6)
        wide = solve(wide_rhs, 0.0, (2.5, 0.0, *[0.15] * 4), 20.0, grid, rtol=1e-6)
        n, w = narrow.stats, wide.stats
        assert n.n_rejected > 0
        assert (n.n_steps, n.n_rejected, n.n_rhs_evals) == (w.n_steps, w.n_rejected, w.n_rhs_evals)
        assert np.array_equal(narrow.t, wide.t)
        halves = np.column_stack((narrow.y[:, 0], np.zeros(grid.size),
                                  np.repeat(narrow.y[:, 1:] / 2.0, 4, axis=1)))
        assert np.max(np.abs(wide.y - halves)) <= 1e-10

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
        # a tuple of floats steps in arrays at any width
        rhs = Form(tuple, lambda t, y: [-v for v in y])
        res = solve(rhs, 0.0, [1.0] * dim, 1.0, [0.0, 1.0])
        assert {kind for _, kind, _ in rhs.seen} == {np.ndarray}
        assert np.max(np.abs(res.y[-1] - math.exp(-1.0))) <= 1e-8

    @pytest.mark.parametrize("answer, form", [(tuple, "_ArrayStages"), (np.ndarray, "_ArrayStages"),
                                              (Form.PAIR, "_PairStages")],
                             ids=["tuple", "array", "pair"])
    def test_the_first_answer_picks_the_form(self, answer, form, monkeypatch):
        picked = []
        for name in ("_PairStages", "_ArrayStages"):
            cls = getattr(rk45, name)
            monkeypatch.setattr(rk45, name,
                                lambda *args, name=name, cls=cls: picked.append(name) or cls(*args))
        rhs = Form(answer, _cubic_rhs)
        rhs.solve(0.0, [0.5, 2.0], 1.0, [0.0, 1.0])
        assert rhs.reached() and picked == [form]

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_mirrored_launches_stay_mirrored_bit_for_bit(self, name, monkeypatch):
        # negation commutes with the pair form's stage sums, and the N = 1 kernel is odd in
        # (X', Z'); no other form may run
        monkeypatch.setattr(rk45, "_ArrayStages", None)
        sc = preset(name)
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        k = sc.ensemble.count_per_slit
        for up, lo in zip(trajs[:k], trajs[k:]):
            assert up.stats == lo.stats
            assert np.array_equal(up.x, -lo.x)
            assert np.array_equal(up.z, -lo.z)


# N = 1 runs: fig2 (Xi = 0, so lin . Z = 0), fig4, the reduced twin of fig4 at N = 1000, and
# a one-particle pointer that is not rigid, the one case whose w takes (t'/2) dXi . p_z SXi
FLOAT_CASES = {"fig2": preset("fig2").params, "fig4": preset("fig4").params,
               "fig4-twin-n1000": reduced_params(preset("fig4").params.with_rigid_pointer(1000)),
               "fig4-nonrigid": replace(preset("fig4").params, pointer_groups=((1, 3.0, 1.0),))}


class TestFloatForm:
    """Runs at N = 1, the reduced backend's among them, step (X', beta) in floats from the
    kernel's pair answer, calling its core at dXi . Z' = alpha u + w."""

    @pytest.mark.parametrize("name", FLOAT_CASES)
    def test_slopes_are_the_kernel_velocity_bit_for_bit(self, name):
        # every core call is, bit for bit, the core that ``velocity`` calls at dXi . Z' =
        # sqrt(D_z) u + w, at u = dXi . Z'(0), and answers alpha = sqrt(D_z)
        params = FLOAT_CASES[name]
        kern = GuidanceKernel(params)
        calls = []

        def traced(t, x, u, w):
            out = kern.coefficients(t, x, u, w)
            calls.append((t, x, u, w, out))
            return out

        t_end, samples, max_step = integrate.time_grid(params)
        d = params.d_prime
        for y0 in ([d, 0.0, 0.0], [d + 0.25, 0.0, 0.4], [-d - 0.25, 0.0, -0.4]):
            calls.clear()
            runs = [solve(rhs, 0.0, y0, t_end, samples, rtol=1e-8, atol=1e-10, max_step=max_step)
                    for rhs in (pair_rhs(kern), lambda t, y: (traced, kern.dxi, kern.pz_basis))]
            assert runs[0].stats == runs[1].stats and runs[0].y.tobytes() == runs[1].y.tobytes()
            assert len(calls) > 300
            u0 = float(np.array(y0[2:]).dot(kern.dxi))
            assert calls[0][2:4] == (0.0, u0)   # the first slope, at dXi . Z'(0) itself
            for t, x, u, w, out in calls[1:]:
                alpha = math.sqrt(kern.denominators(t)[2])
                assert u == u0 and out[4] == alpha, (name, t)
                ref = kern.coefficients(t, x, 0.0, alpha * u + w)
                assert np.array(out).tobytes() == np.array(ref).tobytes(), (name, t, x, u, w)


def _seeded_fig4(n: int, seed: int):
    """fig4 at N = n with a seeded pointer draw, one launch per slit."""
    sc = with_n_particles(preset("fig4"), n)
    return replace(sc, ensemble=replace(sc.ensemble, count_per_slit=1,
                                        z_init=integrate.ZInit.gaussian(seed)))


# N >= 2 full-analytic runs: fig7 and fig8's two one-particle pointers, a rigid N = 3, and
# a seeded N = 100 draw whose launches keep clear of nodes
BLOCK_CASES = {"fig7": preset("fig7"), "fig8": preset("fig8"),
               "fig4-n3": with_n_particles(preset("fig4"), 3),
               "fig4-n100-seed3": _seeded_fig4(100, 3)}


class TestBlockForm:
    """Full-analytic runs at N >= 2 step (X', beta) in the pair form as well; ``velocity``
    answers the whole N + 2 dimensional flow, which the array form steps."""

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_matches_the_array_path(self, name):
        # the reference: velocity stepped in N + 2 dimensions by the array form; the pair
        # form holds to it within the full vs reduced contract on X', Sigma_hat' and each Z'_n
        sc = BLOCK_CASES[name]
        kern = GuidanceKernel(sc.params)
        t_end, samples, max_step = integrate.time_grid(sc.params)
        rtol = sc.integrator.rel_tol
        for init in sample_initials(sc.ensemble, sc.params):
            ref = solve(kern.velocity, 0.0, init.state(), t_end, samples, rtol=rtol,
                        atol=rtol / 100, max_step=max_step)
            traj = integrate_trajectory(init, sc.params, sc.integrator)
            assert np.array_equal(traj.t, ref.t)
            z = ref.y[:, 2:]
            pairs = (traj.x, ref.y[:, 0]), (traj.sigma_hat, sigma_hat_of(z)), (traj.z, z)
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-5, name

    def test_an_attempt_does_no_array_work(self, monkeypatch):
        # Z' is formed at the samples alone: no attempt calls numpy, and the state it steps
        # is two Python floats, so its cost does not grow with N
        numpy_calls = []

        def watch(frame, event, fn):
            # Python functions by their module, C functions and methods by theirs or their owner's
            if event == "call" and frame.f_globals.get("__name__", "").startswith("numpy"):
                numpy_calls.append(frame.f_code.co_name)
            elif event == "c_call" and (getattr(fn, "__module__", None) or type(
                    getattr(fn, "__self__", None)).__module__).startswith("numpy"):
                numpy_calls.append(fn)

        class Watched(rk45._PairStages):
            __slots__ = ()

            def attempt(self, t, h):
                sys.setprofile(watch)
                try:
                    return super().attempt(t, h)
                finally:
                    sys.setprofile(None)
                    assert all(type(v) is float for v in (*self.y, *self.k1, self.s)), t

        monkeypatch.setattr(rk45, "_PairStages", Watched)
        sc = _seeded_fig4(100, 3)
        for init in sample_initials(sc.ensemble, sc.params):
            traj = integrate_trajectory(init, sc.params, sc.integrator)
            assert traj.stats.n_steps > 100 and traj.z.shape[1] == 100
        assert numpy_calls == []

    @pytest.mark.parametrize("n", [3, 100])
    def test_mirrored_launches_stay_mirrored_bit_for_bit(self, n):
        # (X', Z') -> (-X', -Z') on a rigid pointer: the core's v_x and a are odd, c_1
        # and b even, and p_z SXi = 0, so beta is odd
        sc = _seeded_fig4(n, 5)
        for init in sample_initials(sc.ensemble, sc.params):
            mirror = Configuration(0.0, -init.x, init.y, tuple(-np.array(init.z)))
            up, lo = (integrate_trajectory(c, sc.params, sc.integrator) for c in (init, mirror))
            assert up.stats == lo.stats and up.stats.n_rejected > 0
            assert np.array_equal(up.x, -lo.x)
            assert np.array_equal(up.y, lo.y)
            assert np.array_equal(up.z, -lo.z)


class TestErrorNorm:
    """The error norm reads (X', Sigma_hat') in both forms, so X' and the twin's coordinate
    count as much at N = 100 as at N = 1, and the global error of what the paper reads holds."""

    def test_hard_wide_pointer_launch_within_the_backend_contract(self):
        # fig4 at N = 100 under the benchmark's fixed pointer (draw 19 of seed 7, Sigma_hat'(0)
        # = -1.0019, near a node): full-analytic at the preset tolerance against a reduced run
        # at rel_tol 1e-12 keeps the full vs reduced contract on both slit-centre launches
        sc = with_n_particles(preset("fig4"), 100)
        pointer_draws = runpy.run_path(str(ROOT / "perfbench" / "inputs.py"))["pointer_draws"]
        z0 = tuple(pointer_draws(7, 100, 27)[19])
        assert round(float(sigma_hat_of(np.array(z0))), 4) == -1.0019
        fine = replace(sc.integrator, rel_tol=1e-12)
        d = sc.params.d_prime
        for init in (Configuration(0.0, x0, 0.0, z0) for x0 in (d, -d)):
            full = integrate_trajectory(init, sc.params, sc.integrator)
            ref = integrate_trajectory(init, sc.params, fine, "reduced")
            assert np.array_equal(full.t, ref.t)
            assert np.max(np.abs(full.x - ref.x)) <= 1e-5
            assert np.max(np.abs(full.sigma_hat - ref.sigma_hat)) <= 1e-5

    @pytest.mark.parametrize("name", ["fig7", "fig8"])
    def test_pointer_direction_the_norm_does_not_read(self, name):
        # fig7 and fig8's p_z dXi sums to 0, so Sigma_hat' does not see the coefficient of
        # p_z dXi: each Z'_n of both launches still holds to a rel_tol 1e-12 run
        sc = preset(name)
        kern = GuidanceKernel(sc.params)
        assert sigma_hat_of(kern.pz_basis[0]) == 0.0
        fine = replace(sc.integrator, rel_tol=1e-12)
        for init in sample_initials(sc.ensemble, sc.params):
            run, ref = (integrate_trajectory(init, sc.params, opts) for opts in (sc.integrator, fine))
            assert np.max(np.abs(run.z - ref.z)) <= 1e-7


# the first slope and the starting-step probe of the pair form: N = 1 on fig2 (Xi = 0, so
# B1 = 0), fig4 and a one-particle pointer (10, 0), whose B2 is not 0; N >= 2 on fig7, fig8
# and a seeded draw of fig4 at N = 100
_FIG4 = preset("fig4")
FIRST_SLOPE_CASES = {
    "fig2": preset("fig2"), "fig4": _FIG4,
    "fig4-(10,0)": replace(_FIG4, params=replace(_FIG4.params, pointer_groups=((1, 10.0, 0.0),))),
    "fig7": preset("fig7"), "fig8": preset("fig8"), "fig4-n100-seed3": _seeded_fig4(100, 3)}


class _Probed(Exception):
    """Raised once the starting step is chosen: the rest of the run is not looked at."""


@pytest.mark.parametrize("name", FIRST_SLOPE_CASES)
def test_first_slope_and_probe_are_the_kernel_velocity_bit_for_bit(name, monkeypatch):
    # the starts: the preset's launches, random configurations (t0 > 0, where Z'(t0) is
    # alpha(t0) K + (t0/2) p_z SXi), and states on signed zeros, where only the order and
    # the terms of each sum fix the sign of a zero slope entry
    sc = FIRST_SLOPE_CASES[name]
    kern = GuidanceKernel(sc.params)
    initial_step, seen = rk45._initial_step, []

    def wrapped(probe, t0, y0, f0, *args):
        def recorded(t, y):
            slope = probe(t, y)
            seen.append((t, y.copy(), slope))
            return slope

        seen.append((t0, y0.copy(), f0))
        initial_step(recorded, t0, y0, f0, *args)
        raise _Probed

    monkeypatch.setattr(rk45, "_initial_step", wrapped)
    t_end, _, max_step = integrate.time_grid(sc.params)
    rtol = sc.integrator.rel_tol
    starts = [(0.0, init.state()) for init in sample_initials(sc.ensemble, sc.params)]
    starts += [(c.t_prime, c.state())
               for c in random_configurations(sc.params, 20, np.random.default_rng(41))]
    starts += [(t, np.array([x, y, *[z] * kern.n])) for t, x, y, z in itertools.product(
        (0.0, 0.7), (0.0, -0.0, 2.5, -2.5), (0.0, -0.0), (0.0, -0.0))]
    b1, b2 = kern.pz_basis
    for t0, y0 in starts:
        seen.clear()
        with pytest.raises(_Probed):
            solve(pair_rhs(kern), t0, y0, t_end, [], rtol=rtol, atol=rtol / 100,
                  max_step=max_step)
        assert len(seen) == 2  # the first slope, then the probe's
        (_, start, f0), (t1, (x1, beta1), f1) = seen
        # the first slope: v_x is velocity's, and beta' the core's a, p_z dXi's share of v_z
        _, _, a, _, _ = kern.coefficients(t0, y0[0], 0.0, float(y0[2:].dot(kern.dxi)))
        assert start.tolist() == [y0[0], 0.0]
        assert np.array(f0).tobytes() == np.array((kern.velocity(t0, y0)[0], a)).tobytes()
        # the probe: velocity's v_x at Z' = alpha K + beta p_z dXi + (t'/2) p_z SXi, to round-off
        alpha0, alpha1 = (math.sqrt(kern.denominators(t)[2]) for t in (t0, t1))
        z1 = alpha1 * (y0[2:] - 0.5 * t0 * b2) / alpha0 + beta1 * b1 + 0.5 * t1 * b2
        v1 = kern.velocity(t1, np.concatenate(((x1, 0.0), z1)))[0]
        assert abs(f1[0] - v1) <= 1e-9 * max(1.0, abs(v1)), (name, t0, y0)


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
        # as the backend steps it, in the pair form, and at N >= 2 ``velocity`` in arrays too
        routes = [kern.velocity] * (kern.n >= 2) + [pair_rhs(kern)]
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
