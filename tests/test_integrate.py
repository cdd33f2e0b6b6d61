"""Trajectory integration, launch grids, ensembles, node handling."""

import math

import numpy as np
import pytest

from bohmsim.integrate import (EnsembleSpec, IntegratorOptions, ZInit, crossing_time,
                               integrate_trajectory, run_ensemble, sample_initials)
from bohmsim.model import Configuration, NodeError, single_pointer_params
from bohmsim.rk45 import solve
from bohmsim.scenario import preset
from bohmsim.velocity import y_closed_form

from conftest import fig4_n_particles


class TestCrossingTime:
    def test_dimensional_oracle(self):
        # independent route: pick dimensional quantities, form the groups,
        # and push t_cross = d / v_x through the time scaling t' = v_y t / b
        hbar, m, a, b, d, vx, vy = 1.3, 0.7, 2.0, 5.0, 6.0, 0.4, 0.9
        params = single_pointer_params(
            xi_x=m * vx * a / hbar, xi_y=m * vy * b / hbar, r=a / b, R=1.0, mu=1.0,
            d_prime=d / a, Xi=1.0)
        expected = vy * (d / vx) / b
        assert crossing_time(params) == pytest.approx(expected, rel=1e-14)

    def test_fig3_value(self, fig3_params):
        assert crossing_time(fig3_params) == pytest.approx(3.0, rel=1e-14)

    def test_coincident_slits(self):
        p = single_pointer_params(10, 10, 1, 1, 1, 1e-12, Xi=1.0)
        assert crossing_time(p) == pytest.approx(0.0, abs=1e-11)

    def test_linear_in_xi_y(self, fig3_params):
        doubled = single_pointer_params(10, 20, 1, 1, 1, 3, Xi=10.0)
        assert crossing_time(doubled) == pytest.approx(2 * crossing_time(fig3_params))


class TestIntegratorOptions:
    def test_defaults_resolve(self, fig4_params):
        t_end, stride, max_step = IntegratorOptions().resolve(fig4_params)
        assert t_end == pytest.approx(2.5 * crossing_time(fig4_params))
        assert stride == pytest.approx(t_end / 512)
        assert max_step == pytest.approx(0.01 * t_end)

    def test_validation(self):
        for bad in (dict(rel_tol=0.0), dict(abs_tol=-1.0), dict(max_step_frac=0.0),
                    dict(t_end=-1.0), dict(stride=0.0), dict(node_eps=0.0),
                    dict(rel_tol=math.nan), dict(abs_tol=math.inf), dict(max_step_frac=math.nan),
                    dict(t_end=math.inf), dict(stride=math.nan), dict(node_eps=math.nan)):
            with pytest.raises(ValueError):
                IntegratorOptions(**bad)

    def test_sample_grid_covers_horizon(self, fig4_params):
        grid = IntegratorOptions(t_end=6.0, stride=1.0).sample_grid(fig4_params)
        assert grid[0] == 0.0
        assert grid[-1] == 6.0
        assert np.all(np.diff(grid) > 0)


class TestSingleTrajectories:
    def test_uncoupled_never_crosses(self, fig2_params):
        init = Configuration(0.0, fig2_params.d_prime + 0.4, 0.0, (0.0,))
        traj = integrate_trajectory(init, fig2_params)
        assert np.min(traj.x) > 0.0

    def test_fast_pointer_crosses_straight(self, fig3_params):
        for off in (-0.8, 0.0, 0.8):
            init = Configuration(0.0, fig3_params.d_prime + off, 0.0, (0.0,))
            traj = integrate_trajectory(init, fig3_params)
            assert traj.x[-1] * traj.x[0] < 0.0

    def test_y_channel_oracle(self, fig4_params):
        init = Configuration(0.0, 2.5, 0.3, (0.1,))
        traj = integrate_trajectory(init, fig4_params)
        exact = np.array([y_closed_form(t, 0.3, fig4_params.xi_y) for t in traj.t])
        assert np.max(np.abs(traj.y - exact)) <= 1e-8

    def test_requires_t0(self, fig4_params):
        with pytest.raises(ValueError):
            integrate_trajectory(Configuration(1.0, 2.5, 0.0, (0.0,)), fig4_params)

    def test_samples_start_at_zero_strictly_increasing(self, fig4_params):
        traj = integrate_trajectory(Configuration(0.0, 2.5, 0.0, (0.0,)), fig4_params)
        assert traj.t[0] == 0.0
        assert np.all(np.diff(traj.t) > 0)

    @pytest.mark.parametrize("fixture", ["fig3_params", "fig4_params"])
    def test_tolerance_convergence_on_grid(self, fixture, request):
        # halving rel_tol moves no final X' by more than 10x the original rel_tol
        params = request.getfixturevalue(fixture)
        base = run_ensemble(EnsembleSpec(), params, IntegratorOptions(rel_tol=1e-8))
        tight = run_ensemble(EnsembleSpec(), params, IntegratorOptions(rel_tol=5e-9))
        worst = max(abs(a.x[-1] - b.x[-1]) for a, b in zip(base, tight))
        assert worst < 10 * 1e-8


class TestSampleInitials:
    def test_grid_counts(self, fig4_params):
        assert len(sample_initials(EnsembleSpec(), fig4_params)) == 18
        assert len(sample_initials(EnsembleSpec(count_per_slit=1), fig4_params)) == 2

    def test_grid_geometry(self, fig4_params):
        inits = sample_initials(EnsembleSpec(), fig4_params)
        upper = [c.x for c in inits[:9]]
        lower = [c.x for c in inits[9:]]
        d = fig4_params.d_prime
        assert upper == pytest.approx(list(d + np.linspace(-0.8, 0.8, 9)))
        assert lower == [-u for u in upper]
        assert all(c.y == 0.0 for c in inits)

    def test_common_value(self, fig4_params):
        inits = sample_initials(EnsembleSpec(z_init=ZInit.common(0.0)), fig4_params)
        assert all(c.z == (0.0,) for c in inits)

    def test_explicit_values(self):
        params = fig4_n_particles(3)
        spec = EnsembleSpec(z_init=ZInit.explicit((0.1, 0.2, 0.3)))
        inits = sample_initials(spec, params)
        assert all(c.z == (0.1, 0.2, 0.3) for c in inits)

    def test_gaussian_law_of_large_numbers(self):
        params = fig4_n_particles(100_000)
        spec = EnsembleSpec(count_per_slit=1, z_init=ZInit.gaussian(123))
        z = np.array(sample_initials(spec, params)[0].z)
        assert abs(z.mean()) <= 3 * 0.5 / math.sqrt(z.size)
        assert z.std() == pytest.approx(0.5, rel=0.01)

    def test_gaussian_requires_seed(self):
        with pytest.raises(ValueError):
            ZInit("gaussian")

    @pytest.mark.parametrize("bad", [
        lambda: ZInit.gaussian(-1),
        lambda: ZInit.common(math.nan),
        lambda: ZInit.explicit((0.1, -math.inf)),
        lambda: ZInit("common", values=(0.1,)),          # a setting its mode never reads
        lambda: ZInit("explicit", values=(0.1,), seed=3),
        lambda: EnsembleSpec(extent=math.nan),
        lambda: EnsembleSpec(extent=math.inf),
    ])
    def test_out_of_range_starts_refused(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_shared_draw_and_determinism(self):
        params = fig4_n_particles(4)
        spec = EnsembleSpec(z_init=ZInit.gaussian(9))
        a = sample_initials(spec, params)
        b = sample_initials(spec, params)
        assert a[0].z == a[5].z  # one draw shared across the grid
        assert [c.z for c in a] == [c.z for c in b]


class TestEnsembles:
    def test_minimal_grid(self, fig4_params):
        trajs = run_ensemble(EnsembleSpec(count_per_slit=1), fig4_params)
        assert len(trajs) == 2

    def test_backend_swap_matches(self):
        params = fig4_n_particles(10)
        spec_full = EnsembleSpec(count_per_slit=2, backend="full-analytic")
        spec_red = EnsembleSpec(count_per_slit=2, backend="reduced")
        full = run_ensemble(spec_full, params)
        red = run_ensemble(spec_red, params)
        for a, b in zip(full, red):
            assert np.max(np.abs(a.x - b.x)) <= 1e-6

    def test_determinism_bitwise(self, fig4_params):
        spec = EnsembleSpec(count_per_slit=3, z_init=ZInit.gaussian(77))
        a = run_ensemble(spec, fig4_params)
        b = run_ensemble(spec, fig4_params)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.x, tb.x)
            assert np.array_equal(ta.z, tb.z)
            assert np.array_equal(ta.log_omega, tb.log_omega)

    def test_no_crossing_in_configuration_space(self, fig4_ensemble):
        trajs = fig4_ensemble
        n = len(trajs)
        for i in range(n):
            for j in range(i + 1, n):
                gap = np.hypot(trajs[i].x - trajs[j].x,
                               trajs[i].z[:, 0] - trajs[j].z[:, 0])
                assert np.min(gap[1:]) > 1e-6

    def test_uncoupled_factorization(self, fig2_params):
        # with Xi = 0 the pointer spreads exactly as if alone
        spec = EnsembleSpec(count_per_slit=2, z_init=ZInit.common(0.7))
        for traj in run_ensemble(spec, fig2_params):
            dz = 1.0 + (2.0 * fig2_params.mu * fig2_params.R**2 * traj.t
                        / (fig2_params.r**2 * fig2_params.xi_y)) ** 2
            assert np.max(np.abs(traj.z[:, 0] - 0.7 * np.sqrt(dz))) <= 1e-8

    def test_process_parallelism_matches_serial(self, fig4_params, monkeypatch):
        spec = EnsembleSpec(count_per_slit=2)
        serial = run_ensemble(spec, fig4_params)
        monkeypatch.setenv("BOHM_SIM_THREADS", "2")
        parallel = run_ensemble(spec, fig4_params)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.z, b.z)

    def test_process_parallelism_matches_serial_on_reduced(self, monkeypatch):
        # workers send back the factors, t, Sigma_hat' and the start, not the pointer block
        sc = preset("fig9")
        spec = EnsembleSpec(count_per_slit=2, z_init=ZInit.gaussian(3), backend="reduced")
        serial = run_ensemble(spec, sc.params, sc.integrator)
        monkeypatch.setenv("BOHM_SIM_THREADS", "2")
        parallel = run_ensemble(spec, sc.params, sc.integrator)
        assert len(parallel) == len(serial) == 4
        for a, b in zip(serial, parallel):
            assert "z" not in vars(b)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.sigma_hat, b.sigma_hat)
            assert np.array_equal(a.z, b.z)


class TestNodeHandling:
    def test_degenerate_truncation_flagged(self):
        # synthetic field that hits a node beyond t = 1
        calls = 0

        def rhs(t, y):
            nonlocal calls
            calls += 1
            if t > 1.0:
                raise NodeError(0.0)
            return np.ones_like(y)

        res = solve(rhs, 0.0, np.zeros(2), 2.0, np.linspace(0.0, 2.0, 21),
                    rtol=1e-8, atol=1e-10, max_step=0.1)
        assert res.degenerate
        assert res.stats.n_node_backoffs > 0
        assert res.stats.n_rhs_evals == calls   # calls that raised count too
        assert res.t_reached <= 1.0 + 1e-9
        assert res.t[-1] <= 1.0 + 1e-9

    def test_nonfinite_aborts(self):
        from bohmsim.rk45 import IntegrationAbort

        def rhs(t, y):
            return np.full_like(y, np.nan) if t > 0.5 else np.ones_like(y)

        with pytest.raises(IntegrationAbort):
            solve(rhs, 0.0, np.zeros(1), 1.0, np.array([1.0]),
                  rtol=1e-8, atol=1e-10, max_step=0.1)
