"""Velocity backends against each other and against closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmsim import velocity
from bohmsim._kernel import GuidanceKernel
from bohmsim.integrate import integrate_trajectory
from bohmsim.model import Configuration, NodeError, ScenarioParams
from bohmsim.validate import random_configurations
from bohmsim.velocity import fd_velocity, velocity_analytic, velocity_numeric, y_closed_form

from conftest import config, fig4_n_particles

coords = st.floats(-4.0, 4.0)
times = st.floats(0.0, 8.0)


def rel_dev(va, vn) -> float:
    a, b = va.as_array(), vn.as_array()
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))


class TestBackendAgreement:
    @pytest.mark.parametrize("preset_params", [
        dict(R=1.0, Xi=0.0), dict(R=1.0, Xi=10.0), dict(R=0.2, Xi=10.0)])
    def test_random_support_agreement(self, preset_params):
        params = ScenarioParams(10, 10, 1, preset_params["R"], 1, 3).with_rigid_pointer(
            1, preset_params["Xi"])
        rng = np.random.default_rng(42)
        for cfg in random_configurations(params, 200, rng):
            assert rel_dev(velocity_analytic(cfg, params),
                           velocity_numeric(cfg, params)) <= 1e-6

    def test_two_pointer_agreement(self):
        params = ScenarioParams(10, 10, 1, 0.2, 1, 3, ((1, 10.0, 0.0), (1, 0.0, 10.0)))
        rng = np.random.default_rng(7)
        for cfg in random_configurations(params, 100, rng):
            assert rel_dev(velocity_analytic(cfg, params),
                           velocity_numeric(cfg, params)) <= 1e-6

    def test_dominant_branch_fast_path_agrees(self, fig3_params):
        # |log Omega| > 40: analytic drops the empty branch, numeric keeps it
        cfg = config(0.2, 3.4, 0.1, [0.05])
        assert rel_dev(velocity_analytic(cfg, fig3_params),
                       velocity_numeric(cfg, fig3_params)) <= 1e-6


def rel_dev_raw(kern, t, state, fd) -> float:
    a = kern.velocity(t, state)
    return float(np.max(np.abs(a - fd) / np.maximum(1.0, np.abs(a))))


def count_branch_evals(monkeypatch) -> list:
    calls = []
    batched = GuidanceKernel.branch_eval

    def counted(self, t, states):
        calls.append(np.shape(states)[:-1])
        return batched(self, t, states)

    monkeypatch.setattr(GuidanceKernel, "branch_eval", counted)
    return calls


class TestStencilBlocks:
    def test_no_pointer_gives_empty_dz(self):
        kern = GuidanceKernel(ScenarioParams(10, 10, 1, 1, 1, 3, ()))
        assert kern.n == 0
        state = np.array([2.1, 1.0])
        fd = fd_velocity(kern, 1.2, state)
        assert fd[2:].tolist() == []
        assert rel_dev_raw(kern, 1.2, state, fd) <= 1e-6

    def test_small_stencil_is_one_call(self, monkeypatch):
        params = fig4_n_particles(16)
        kern = GuidanceKernel(params)
        cfg = random_configurations(params, 1, np.random.default_rng(4))[0]
        calls = count_branch_evals(monkeypatch)
        fd_velocity(kern, cfg.t_prime, cfg.state())
        assert calls == [(1 + 4 * 18,)]

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        params = fig4_n_particles(16)
        kern = GuidanceKernel(params)
        args = [(kern, c.t_prime, c.state())
                for c in random_configurations(params, 5, np.random.default_rng(5))]
        whole = [fd_velocity(*a).tolist() for a in args]
        monkeypatch.setattr(velocity, "FD_BLOCK_BYTES", 1)  # one coordinate per block
        assert [fd_velocity(*a).tolist() for a in args] == whole

    def test_many_blocks_at_n_1000_match_the_closed_form(self, monkeypatch):
        params = fig4_n_particles(1000)
        kern = GuidanceKernel(params)
        cfgs = random_configurations(params, 3, np.random.default_rng(6))
        calls = count_branch_evals(monkeypatch)
        for cfg in cfgs:
            state = cfg.state()
            calls.clear()
            fd = fd_velocity(kern, cfg.t_prime, state)
            assert len(fd[2:]) == 1000
            assert rel_dev_raw(kern, cfg.t_prime, state, fd) <= 1e-6
            rows = [shape[0] for shape in calls]
            assert len(rows) > 1 and sum(rows) == 1 + 4 * 1002
            # bounded blocks: whole coordinates (4 rows each) within FD_BLOCK_BYTES
            assert 4 * 1002 * 8 <= (max(rows) - 1) * 1002 * 8 <= velocity.FD_BLOCK_BYTES

    @pytest.mark.parametrize("n", [1, 16])
    def test_fd_never_calls_the_analytic_algebra(self, monkeypatch, n):
        params = fig4_n_particles(n)
        kern = GuidanceKernel(params)
        args = [(kern, c.t_prime, c.state())
                for c in random_configurations(params, 5, np.random.default_rng(9))]
        before = [fd_velocity(*a).tobytes() for a in args]

        def refuse(*_args, **_kwargs):
            raise AssertionError("the finite-difference route used the analytic algebra")

        for name in ("coefficients", "contrast", "velocity", "block_velocity"):
            monkeypatch.setattr(GuidanceKernel, name, refuse)
        assert [fd_velocity(*a).tobytes() for a in args] == before

    def test_a_state_of_another_length_is_refused(self):
        # a one-element state would otherwise broadcast into every stencil coordinate
        kern = GuidanceKernel(fig4_n_particles(1))
        for state in ([0.5], [0.5, 0.2], [0.5, 0.2, 0.1, 0.0]):
            with pytest.raises(ValueError):
                fd_velocity(kern, 0.7, np.array(state))

    @pytest.mark.parametrize("n, rows", [(0, [9]), (88, [1 + 4 * 90]), (89, [1 + 4 * 90, 4])])
    def test_block_boundary(self, monkeypatch, n, rows):
        # the default blocks hold 90 coordinates: N = 88 is one call, and at N = 89 the
        # last coordinate goes alone to a second call, without the centre row
        params = fig4_n_particles(n)
        kern = GuidanceKernel(params)
        cfgs = random_configurations(params, 3, np.random.default_rng(10 + n))
        calls = count_branch_evals(monkeypatch)
        whole = []
        for cfg in cfgs:
            state = cfg.state()
            calls.clear()
            fd = fd_velocity(kern, cfg.t_prime, state)
            assert [shape[0] for shape in calls] == rows
            assert rel_dev_raw(kern, cfg.t_prime, state, fd) <= 1e-6
            whole.append(fd.tolist())
        monkeypatch.setattr(velocity, "FD_BLOCK_BYTES", 1)  # one coordinate per block
        assert [fd_velocity(kern, c.t_prime, c.state()).tolist() for c in cfgs] == whole


class TestWrapperKernel:
    def test_one_kernel_per_params_object(self, monkeypatch):
        built = []

        class Spy(GuidanceKernel):
            def __init__(self, params):
                built.append(params)
                super().__init__(params)

        monkeypatch.setattr(velocity, "GuidanceKernel", Spy)
        first = fig4_n_particles(3)
        twin = replace(first)  # equal, but another object: it gets its own kernel
        assert twin == first and twin is not first
        for params in (first, twin):
            fresh = GuidanceKernel(params)
            for cfg in random_configurations(params, 25, np.random.default_rng(8)):
                state = cfg.state()
                va = velocity_analytic(cfg, params).as_array()
                vn = velocity_numeric(cfg, params).as_array()
                assert va.tobytes() == fresh.velocity(cfg.t_prime, state).tobytes()
                assert vn.tobytes() == fd_velocity(fresh, cfg.t_prime, state).tobytes()
        assert len(built) == 2 and built[0] is first and built[1] is twin


class TestUncoupledPointer:
    def test_pointer_velocity_ignores_test_particle(self, fig2_params):
        z = [0.4]
        base = velocity_analytic(config(1.0, 2.0, 0.5, z), fig2_params)
        moved = velocity_analytic(config(1.0, -1.3, 0.5, z), fig2_params)
        assert moved.dz == base.dz

    def test_test_particle_ignores_pointer(self, fig2_params):
        base = velocity_analytic(config(1.0, 2.0, 0.5, [0.4]), fig2_params)
        moved = velocity_analytic(config(1.0, 2.0, 0.5, [-2.0]), fig2_params)
        assert moved.dx == base.dx


class TestSymmetry:
    def test_current_confined_to_symmetry_plane(self, fig4_params):
        for t in (0.0, 0.5, 2.0, 5.0):
            v = velocity_analytic(config(t, 0.0, 0.3, [0.0]), fig4_params)
            assert v.dx == 0.0

    @given(t=times, x=coords, y=coords, z=coords)
    def test_mirror_antisymmetry_exact(self, t, x, y, z, fig4_params):
        try:
            v = velocity_analytic(config(t, x, y, [z]), fig4_params)
            m = velocity_analytic(config(t, -x, y, [-z]), fig4_params)
        except NodeError:
            return
        assert m.dx == -v.dx
        assert m.dy == v.dy
        assert m.dz[0] == -v.dz[0]

    def test_permutation_equivariance(self):
        params = ScenarioParams(10, 10, 1, 0.2, 1, 3,
                                ((1, 10.0, -10.0), (1, 4.0, -1.0), (1, 0.0, 7.0)))
        perm = [2, 0, 1]
        table = tuple(params.pointer_groups[i] for i in perm)
        permuted = ScenarioParams(10, 10, 1, 0.2, 1, 3, table)
        z = (0.3, -0.6, 1.1)
        zp = tuple(z[i] for i in perm)
        v = velocity_analytic(config(1.2, 0.7, 0.9, z), params)
        vp = velocity_analytic(config(1.2, 0.7, 0.9, zp), permuted)
        assert vp.dz == tuple(v.dz[i] for i in perm)
        assert vp.dx == v.dx

    def test_identical_particles_move_identically(self, ):
        params = ScenarioParams(10, 10, 1, 0.2, 1, 3).with_rigid_pointer(3, 10.0)
        v = velocity_analytic(config(1.2, 0.7, 0.9, (0.4, 0.4, 0.4)), params)
        assert v.dz[0] == v.dz[1] == v.dz[2]


class TestLongitudinalChannel:
    @given(t=times, x=coords, z=coords, x2=coords, z2=coords)
    def test_dy_never_depends_on_x_or_z(self, t, x, z, x2, z2, fig4_params):
        try:
            a = velocity_analytic(config(t, x, 0.8, [z]), fig4_params)
            b = velocity_analytic(config(t, x2, 0.8, [z2]), fig4_params)
        except NodeError:
            return
        assert a.dy == b.dy

    def test_numeric_dy_matches_closed_form_rate(self, fig2_params):
        # dY'/dt' from differentiating t' + Y0 sqrt(1 + 4 t'^2/xi_y^2)
        xi_y = fig2_params.xi_y
        t, y0 = 1.7, 0.5
        y_t = y_closed_form(t, y0, xi_y)
        rate = 1.0 + y0 * (4.0 * t / xi_y**2) / math.sqrt(1.0 + 4.0 * t**2 / xi_y**2)
        v = velocity_numeric(config(t, 1.0, y_t, [0.2]), fig2_params)
        assert v.dy == pytest.approx(rate, rel=1e-9)

    def test_y_closed_form_values(self):
        assert y_closed_form(2.7, 0.0, 10.0) == 2.7
        assert y_closed_form(0.0, 0.4, 10.0) == 0.4
        assert y_closed_form(5.0, 1.0, 10.0) == pytest.approx(5.0 + math.sqrt(2.0), rel=1e-15)
        with pytest.raises(ValueError):
            y_closed_form(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("xi_y", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_y_closed_form_refuses_a_width_that_is_not_positive_and_finite(self, xi_y):
        # NaN and infinities are no width: they would give NaN or t' + Y'_0
        with pytest.raises(ValueError, match="positive and finite"):
            y_closed_form(1.0, 0.5, xi_y)


class TestTwoSlitReduction:
    @given(t=times, x=coords, y=coords)
    @settings(max_examples=25)
    def test_no_pointer_standard_two_slit_field(self, t, x, y):
        params = ScenarioParams(10, 10, 1, 1, 1, 3, ())
        cfg = config(t, x, y)
        try:
            va = velocity_analytic(cfg, params)
            vn = velocity_numeric(cfg, params)
        except NodeError:
            return
        assert rel_dev(va, vn) <= 1e-6
        assert va.dz == ()


class TestErrors:
    def test_node_raises_both_backends(self, fig4_params):
        # x' = 0 kills the amplitude asymmetry; z tuned so delta_S = pi
        xi = fig4_params.single_pointer_xi
        t = 1e-9
        dz = 1.0 + (2.0 * fig4_params.mu * fig4_params.R**2 * t
                    / (fig4_params.r**2 * fig4_params.xi_y)) ** 2
        z = math.pi * dz / (2.0 * xi)
        cfg = config(t, 0.0, 0.0, [z])
        with pytest.raises(NodeError):
            velocity_analytic(cfg, fig4_params)
        with pytest.raises(NodeError):
            velocity_numeric(cfg, fig4_params)

    def test_node_raises_both_backends_at_n_16(self):
        # as above, with the pointer sum shared by 16 equal coordinates
        params = fig4_n_particles(16)
        xi = params.single_pointer_xi
        t = 1e-9
        dz = 1.0 + (2.0 * params.mu * params.R**2 * t / (params.r**2 * params.xi_y)) ** 2
        cfg = config(t, 0.0, 0.0, [math.pi * dz / (2.0 * xi * 16)] * 16)
        with pytest.raises(NodeError):
            velocity_analytic(cfg, params)
        with pytest.raises(NodeError):
            velocity_numeric(cfg, params)

    @pytest.mark.parametrize("change, refused", [
        (dict(xi_x=2999.0), False), (dict(xi_x=3000.0), True), (dict(xi_y=3000.0), True),
        (dict(pointer_groups=((1, 10.0, -3000.0),)), True),
        (dict(pointer_groups=((1, 1e155, -1e155),)), True)],
        ids=["xi_x-below", "xi_x-at", "xi_y-at", "xi_minus-at", "xi-1e155"])
    def test_full_numeric_refuses_a_phase_its_step_cannot_resolve(self, fig4_params, change,
                                                                  refused):
        # k h = max(xi_x, xi_y, |Xi+/-|) FD_H must stay below FD_MAX_KH = 0.03
        params = replace(fig4_params, **change)
        init = Configuration(0.0, params.d_prime, 0.0, (0.0,))
        if refused:
            with pytest.raises(ValueError, match="cannot resolve"):
                integrate_trajectory(init, params, backend="full-numeric")
        else:
            velocity.check_fd_resolves(params)

    def test_wrong_pointer_count(self, fig4_params):
        with pytest.raises(ValueError):
            velocity_analytic(config(0.0, 1.0, 0.0, [0.0, 0.0]), fig4_params)
