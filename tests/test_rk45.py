"""The DOPRI5 stepper: dense output, sample-time validation, non-finite stages, counts.

``solve`` steps a state in Python floats when the right-hand side answers the
block form's (core, lin, basis) for a one-component block, with its block held as
coefficients when it answers that for a wider block, and in its array buffer
otherwise.  The tests of each stepper behaviour run one three-component system in
every form (``conftest.every_form``) and check that each run reached the form it targets.
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
from bohmsim.reduced import reduced_params
from bohmsim.rk45 import H_FLOOR, IntegrationAbort, solve
from bohmsim.scenario import preset, with_n_particles
from bohmsim.validate import random_configurations
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
            res = rhs.solve(0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert np.array_equal(res.t, samples)
            assert res.y[0].tolist() == y0
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

    def test_samples_in_last_step_only(self):
        y0 = [0.0, 0.0, 0.0]
        for rhs in every_form(_cubic_rhs):
            samples = np.array([0.9, 0.95, 0.99, 1.0])
            res = rhs.solve(0.0, y0, 1.0, samples, max_step=0.25)
            assert rhs.reached()
            assert np.array_equal(res.t, samples)
            assert np.max(np.abs(res.y - _quartic(samples, y0))) <= 1e-12, rhs.answer

    def test_sample_just_past_t_end_is_served(self):
        y0 = [0.5, -1.0, 2.0]
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
                rhs.solve(t0, [1.0, 2.0], t_end, [])
            assert rhs.seen == []


class TestNonFiniteStages:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_abort_at_floor_without_passing_state_to_rhs(self, bad):
        for rhs in every_form(lambda t, y: [bad if t > 0.5 else 1.0] * 3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no RuntimeWarning on the way to the abort
                with pytest.raises(IntegrationAbort):
                    rhs.solve(0.0, np.zeros(3), 1.0, [0.0, 1.0], max_step=0.1)
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
        slope = [self.kick if t == self.last else 0.0, 0.0, 0.0]
        self.last = t
        return slope


class TestAborts:
    """The stepper's ways out of a run that cannot go on, on every form and unwarned."""

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(rk45, "MAX_STEPS", 5)
        for rhs in every_form(lambda t, y: [-v for v in y]):
            with pytest.raises(IntegrationAbort, match="step budget exceeded"):
                rhs.solve(0.0, [1.0, 2.0, 3.0], 1.0, [0.0, 1.0], max_step=0.01)
            assert rhs.reached()

    def test_step_that_does_not_advance_t(self):
        # the float spacing at 2^60 is 256: a step of at most 1 leaves t where it was
        t0 = 2.0 ** 60
        for rhs in every_form(lambda t, y: [-v for v in y]):
            with deadline(10), pytest.raises(IntegrationAbort, match="does not advance"):
                rhs.solve(t0, [1.0, 2.0, 3.0], t0 + 4096.0, [t0], max_step=1.0)
            assert rhs.reached()

    # 1e300 is finite, but the error it gives overflows: in ``_error_norm``'s dot on arrays
    @pytest.mark.parametrize("kick", [math.nan, math.inf, -math.inf, 1e300])
    def test_non_finite_error_estimate_aborts_at_floor(self, kick):
        for rhs in every_form(_KickAtStage7(kick)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="non-finite error estimate"):
                    rhs.solve(0.0, [1.0, 1.0, 1.0], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert all(np.isfinite(y).all() for _, _, y in rhs.seen)
            assert min(t for t, _, _ in rhs.seen[1:]) < 2 * H_FLOOR

    def test_rejections_below_the_floor_end_degenerate(self):
        for rhs in every_form(_KickAtStage7(1e10)):
            res = rhs.solve(0.0, [1.0, 1.0, 1.0], 1.0, [0.0, 1.0])
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
                    rhs.solve(0.0, [1.0, 1.0], 1.0, [0.0, 1.0])
            assert len(rhs.seen) == 1

    def test_overflowing_probe_state_aborts_unseen(self):
        # y' = y near the largest float: the starting-step probe y0 + h0 f0 overflows
        for rhs in every_form(lambda t, y: y, dim=2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationAbort, match="non-finite stage state"):
                    rhs.solve(0.0, [1.79e308, 1.0], 1.0, [0.0, 1.0])
            assert len(rhs.seen) == 1

    def test_finite_stage_whose_sum_overflows_is_stepped(self):
        # the float path tests a stage's sum first; 1e308 + 1e308 overflows, yet each
        # component is finite, so the run goes on and rhs sees the state
        for rhs in every_form(lambda t, y: [0.0, 0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = rhs.solve(0.0, [1e308, 1e308, 0.0], 1.0, [0.0, 1.0])
            assert rhs.reached()
            assert res.t.tolist() == [0.0, 1.0] and not res.degenerate
            assert res.y.tolist() == [[1e308, 1e308, 0.0]] * 2
            assert res.stats.n_rhs_evals == len(rhs.seen) > 2
            assert all(y.tolist() == [1e308, 1e308, 0.0] for _, _, y in rhs.seen)


def _one_component_block(core):
    """The block form's answer for a state (x, y, z) whose block is z alone: lin z is z,
    and z' is c z + a."""
    return lambda t, y: (core, np.ones(1), np.array([[1.0], [0.0]]))


class TestSolverCounts:
    def test_rhs_evals_match_a_counting_wrapper(self, monkeypatch):
        # fig4 steps in floats, fig7 with its block as coefficients: both from the kernel's
        # block answer, where each call of its core is one evaluation
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
        # the float form counts its calls once per attempt, the one that raised included
        calls = []

        def core(t, x, y, z):
            calls.append((x, y, z))
            if len(calls) == at:
                raise NodeError(0.0)
            return -x, -y, -1.0, 0.0, 0.0

        res = solve(_one_component_block(core), 0.0, [1.0, 2.0, 3.0], 1.0, [0.0, 1.0])
        assert res.stats.n_rhs_evals == len(calls) and len(calls) >= at
        assert res.degenerate == (at == 1)
        assert res.stats.n_node_backoffs == (at > 2)

    @pytest.mark.parametrize("at", [3, 4, 7])
    def test_non_finite_stage_is_counted(self, at):
        # the slope of call ``at`` (stages 2, 3 and 6 of the first attempt) makes the next
        # stage state infinite: the attempt ends before that state reaches the core
        calls = []

        def core(t, x, y, z):
            calls.append((x, y, z))
            return (math.inf if len(calls) == at else -x), -y, -1.0, 0.0, 0.0

        res = solve(_one_component_block(core), 0.0, [1.0, 2.0, 3.0], 1.0, [0.0, 1.0])
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
            res = rhs.solve(np.float64(0.0), [0.5, -1.0, 2.0], np.float64(1.0), [0.0, 1.0],
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
            res = rhs.solve(0.0, [1.0, 1.0, 1.0], 1.0, grid, rtol=1e-10, atol=1e-12)
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
        # the tuple answer steps in arrays, bit for bit as the array answer; the float form
        # agrees with both, and the block form, on four components, with the array path there
        grid = np.linspace(0.0, 20.0, 97)
        tup, arr, flt, blk = forms = every_form(_pendulum_and_follower)
        a, u, f = (rhs.solve(0.0, (2.5, 0.0, 0.3), 20.0, grid, rtol=1e-6)
                   for rhs in (arr, tup, flt))
        a4 = solve(lambda t, y: (*_pendulum_and_follower(t, y), 0.0), 0.0, (2.5, 0.0, 0.3, 0.0),
                   20.0, grid, rtol=1e-6)
        b = blk.solve(0.0, (2.5, 0.0, 0.3), 20.0, grid, rtol=1e-6)
        assert all(rhs.reached() for rhs in forms)
        assert u.stats == a.stats and u.y.tobytes() == a.y.tobytes()
        for ref, other in ((a, f), (a4, b)):
            assert ref.stats.n_rejected > 0
            assert (other.stats.n_steps, other.stats.n_rejected, other.stats.n_rhs_evals) == \
                   (ref.stats.n_steps, ref.stats.n_rejected, ref.stats.n_rhs_evals)
            assert np.array_equal(other.t, ref.t)
            # the stage sums round differently, and the controller carries that into h;
            # the follower grows to |u| = 448, so the bound is relative beyond |y| = 1
            ref_y = ref.y[:, :3]
            assert np.max(np.abs(other.y - ref_y) / np.maximum(1.0, np.abs(ref_y))) <= 1e-10

    def test_narrow_and_duplicated_system_agree(self):
        # the narrow system in floats (a one-component block), its tiled copy in arrays
        y0 = (2.5, 0.0, 0.3)
        grid = np.linspace(0.0, 20.0, 97)
        narrow = Form(Form.FLOAT, _pendulum_and_follower).solve(0.0, y0, 20.0, grid, rtol=1e-6)
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
        # a tuple of floats steps in arrays at any width (``every_form`` checks three)
        rhs = Form(tuple, lambda t, y: [-v for v in y])
        res = solve(rhs, 0.0, [1.0] * dim, 1.0, [0.0, 1.0])
        assert {kind for _, kind, _ in rhs.seen} == {np.ndarray}
        assert np.max(np.abs(res.y[-1] - math.exp(-1.0))) <= 1e-8

    @pytest.mark.parametrize("answer, form", [(tuple, "_ArrayStages"), (np.ndarray, "_ArrayStages"),
                                              (Form.FLOAT, "_FloatStages"),
                                              (Form.BLOCK, "_BlockStages")],
                             ids=["tuple", "array", "float", "block"])
    def test_the_first_answer_picks_the_form(self, answer, form, monkeypatch):
        picked = []
        for name in ("_FloatStages", "_ArrayStages", "_BlockStages"):
            cls = getattr(rk45, name)
            monkeypatch.setattr(rk45, name,
                                lambda *args, name=name, cls=cls: picked.append(name) or cls(*args))
        rhs = Form(answer, _cubic_rhs)
        rhs.solve(0.0, [0.5, -1.0, 2.0], 1.0, [0.0, 1.0])
        assert rhs.reached() and picked == [form]

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_mirrored_launches_stay_mirrored_bit_for_bit(self, name, monkeypatch):
        # negation commutes with the float form's stage sums, and the N = 1 kernel is odd in
        # (X', Z'); no other form may run
        monkeypatch.setattr(rk45, "_ArrayStages", None)
        monkeypatch.setattr(rk45, "_BlockStages", None)
        sc = preset(name)
        trajs = run_ensemble(sc.ensemble, sc.params, sc.integrator)
        k = sc.ensemble.count_per_slit
        for up, lo in zip(trajs[:k], trajs[k:]):
            assert up.stats == lo.stats
            assert np.array_equal(up.x, -lo.x)
            assert np.array_equal(up.z, -lo.z)


# N = 1 runs: fig2 (Xi = 0, so lin z = 0), fig4, the reduced twin of fig4 at N = 1000, and
# a one-particle pointer that is not rigid, the one case whose slope takes b p_z SXi
FLOAT_CASES = {"fig2": preset("fig2").params, "fig4": preset("fig4").params,
               "fig4-twin-n1000": reduced_params(preset("fig4").params.with_rigid_pointer(1000)),
               "fig4-nonrigid": replace(preset("fig4").params, pointer_groups=((1, 3.0, 1.0),))}


class TestFloatForm:
    """Runs at N = 1, the reduced backend's among them, step (X', Y', Z') in floats from the
    kernel's block answer (``GuidanceKernel.block_velocity``)."""

    @pytest.mark.parametrize("name", FLOAT_CASES)
    def test_slopes_are_the_kernel_velocity_bit_for_bit(self, name, monkeypatch):
        params = FLOAT_CASES[name]
        kern = GuidanceKernel(params)
        core, lin, basis = kern.block_velocity(0.0, None)
        (dxi,) = lin.tolist()
        seen, slopes = [], []

        def traced(t, x, y, z):
            # handed lin = 1, the core still sees the product dXi z the float form forms
            seen.append((t, x, y, z))
            return core(t, x, y, dxi * z)

        class Recorded(rk45._FloatStages):
            def attempt(self, t, h):
                first = len(seen)
                err = super().attempt(t, h)
                if self.core is traced:
                    # stage 1 at the step's start, then stages 2-7 as the core saw them
                    states = [(t, *self.y), *seen[first:]]
                    slopes.extend(zip(states, (self.ks[i:i + 3] for i in range(0, 21, 3)),
                                      strict=True))
                return err

        monkeypatch.setattr(rk45, "_FloatStages", Recorded)
        t_end, samples, max_step = integrate.time_grid(params)
        d = params.d_prime
        for y0 in ([d, 0.0, 0.0], [d + 0.25, 0.0, 0.4], [-d - 0.25, 0.0, -0.4]):
            runs = [solve(rhs, 0.0, y0, t_end, samples, rtol=1e-8, atol=1e-10, max_step=max_step)
                    for rhs in (kern.block_velocity, lambda t, y: (traced, np.ones(1), basis))]
            assert runs[0].stats == runs[1].stats and runs[0].y.tobytes() == runs[1].y.tobytes()
        assert len(slopes) > 1000
        for (t, x, y, z), slope in slopes:
            v = kern.velocity(t, np.array([x, y, z]))
            assert np.array(v).tobytes() == np.array(slope).tobytes(), (name, t, x, y, z)


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


# the first slope and the starting-step probe of both block forms: N = 1 on fig2 (Xi = 0,
# so B1 = 0), fig4 and a one-particle pointer (10, 0), whose B2 is not 0; N >= 2 on fig7,
# fig8 and a seeded draw of fig4 at N = 100
_FIG4 = preset("fig4")
FIRST_SLOPE_CASES = {
    "fig2": preset("fig2"), "fig4": _FIG4,
    "fig4-(10,0)": replace(_FIG4, params=replace(_FIG4.params, pointer_groups=((1, 10.0, 0.0),))),
    "fig7": preset("fig7"), "fig8": preset("fig8"), "fig4-n100-seed3": _seeded_fig4(100, 3)}


class _Probed(Exception):
    """Raised once the starting step is chosen: the rest of the run is not looked at."""


@pytest.mark.parametrize("name", FIRST_SLOPE_CASES)
def test_first_slope_and_probe_are_the_kernel_velocity_bit_for_bit(name, monkeypatch):
    # the starts: the preset's launches, random configurations, and states on signed zeros,
    # where only the order and the terms of each sum fix the sign of a zero slope entry
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
    for t0, y0 in starts:
        seen.clear()
        with pytest.raises(_Probed):
            solve(kern.block_velocity, t0, y0, t_end, [], rtol=rtol, atol=rtol / 100,
                  max_step=max_step)
        assert len(seen) == 2  # the first slope, then the probe's
        for t, state, slope in seen:
            assert type(slope) is np.ndarray
            assert np.array(kern.velocity(t, state)).tobytes() == slope.tobytes(), (name, t, state)


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
        # as the backend steps it, in floats at N = 1 and in block form at N >= 2, where
        # ``velocity`` also steps in arrays
        routes = [kern.velocity] * (kern.n >= 2) + [kern.block_velocity]
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
