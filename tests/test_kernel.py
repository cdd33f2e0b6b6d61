"""Closed-form branch contrast of the guidance kernel.

``branch_eval`` forms the two branches term by term and is what the
finite-difference oracle is built on; ``contrast`` and ``velocity`` use the
closed forms of log Omega and delta S instead.  These tests hold the two
routes together and pin the properties the integrator relies on.
"""

import numpy as np
import pytest

from bohmsim._kernel import DOMINANT_LOG_CUTOFF, GuidanceKernel
from bohmsim.integrate import integrate_trajectory
from bohmsim.scenario import preset, with_n_particles
from bohmsim.validate import random_configurations
from bohmsim.velocity import fd_velocity

from conftest import config, fig4_n_particles, spread_z0


def preset_params(name: str, n: int):
    sc = preset(name)
    return sc.params if n == sc.params.n_particles else with_n_particles(sc, n).params


CASES = [(name, n) for name in ("fig2", "fig3", "fig4") for n in (1, 7, 100)] + [("fig7", 2)]


@pytest.mark.parametrize("name,n", CASES)
def test_closed_form_matches_branch_difference(name, n):
    params = preset_params(name, n)
    kern = GuidanceKernel(params)
    rng = np.random.default_rng(1000 + 10 * n + len(name))
    for cfg in random_configurations(params, 60, rng):
        z = cfg.state()[2:]
        lr1, lr2, s1, s2 = kern.branch_eval(cfg.t_prime, cfg.x, cfg.y, z)
        log_omega, delta_s, _ = kern.contrast(cfg.t_prime, cfg.x, z)
        assert abs(log_omega - (lr1 - lr2)) <= 1e-13 * max(1.0, abs(lr1), abs(lr2))
        assert abs(delta_s - (s1 - s2)) <= 1e-13 * max(1.0, abs(s1), abs(s2))


def test_pointer_part_is_the_pointer_share_of_log_omega():
    # the X'-dependence of log Omega lives entirely outside the pointer part
    kern = GuidanceKernel(fig4_n_particles(7))
    z = np.linspace(-0.3, 0.4, 7)
    l_a, _, part_a = kern.contrast(1.7, 2.0, z)
    l_b, _, part_b = kern.contrast(1.7, -0.5, z)
    assert part_a == part_b
    assert l_a - l_b == pytest.approx(4.0 * 2.5 * (kern.d - kern.beta * 1.7)
                                      / (1.0 + (kern.ax * 1.7) ** 2), rel=1e-12)


@pytest.mark.parametrize("name,n", [("fig3", 7), ("fig4", 100), ("fig7", 2)])
def test_vectorised_contrast_equals_per_sample(name, n):
    params = preset_params(name, n)
    kern = GuidanceKernel(params)
    cfgs = random_configurations(params, 80, np.random.default_rng(3))
    t = np.array([c.t_prime for c in cfgs])
    x = np.array([c.x for c in cfgs])
    z = np.array([c.z for c in cfgs])
    batch = kern.contrast(t, x, z)
    for i in range(t.size):
        one = kern.contrast(float(t[i]), float(x[i]), z[i])
        for vec, val in zip(batch, one):
            assert abs(vec[i] - val) <= 1e-12 * max(1.0, abs(val))


@pytest.mark.parametrize("backend", ["full-analytic", "reduced"])
def test_trajectory_diagnostics_equal_per_sample(backend):
    params = fig4_n_particles(4)
    init = config(0.0, 3.2, 0.0, spread_z0(4, 0.3))
    traj = integrate_trajectory(init, params, backend=backend)
    kern = GuidanceKernel(params)
    for i in range(0, traj.n_samples, 7):
        log_omega, delta_s, _ = kern.contrast(float(traj.t[i]), float(traj.x[i]), traj.z[i])
        assert abs(traj.log_omega[i] - log_omega) <= 1e-12 * max(1.0, abs(log_omega))
        assert abs(traj.delta_s[i] - delta_s) <= 1e-12 * max(1.0, abs(delta_s))


@pytest.mark.parametrize("name,n", [("fig3", 1), ("fig3", 7), ("fig4", 1), ("fig4", 100)])
def test_velocity_mirror_symmetry_is_bit_exact(name, n):
    params = preset_params(name, n)
    kern = GuidanceKernel(params)
    dominant = mixed = 0
    for cfg in random_configurations(params, 150, np.random.default_rng(11)):
        t, x, y, z = cfg.t_prime, cfg.x, cfg.y, cfg.state()[2:]
        v = kern.velocity(t, np.concatenate(([x, y], z)))
        m = kern.velocity(t, np.concatenate(([-x, y], -z)))
        assert m[0] == -v[0]
        assert m[1] == v[1]
        assert np.array_equal(m[2:], -v[2:])
        log_omega, _, _ = kern.contrast(t, x, z)
        if abs(log_omega) > DOMINANT_LOG_CUTOFF:
            dominant += 1
        else:
            mixed += 1
    assert mixed > 0
    if name == "fig3":
        assert dominant > 0


# the closed-form route under the plain ids, the finite-difference route under "-fd"
STATE_ROUTES = [pytest.param(name, n, route, other, id=f"{name}-{n}{suffix}")
                for route, other, suffix in ((GuidanceKernel.velocity, fd_velocity, ""),
                                             (fd_velocity, GuidanceKernel.velocity, "-fd"))
                for name, n in (("fig4", 0), ("fig3", 1), ("fig7", 2), ("fig4", 100))]


@pytest.mark.parametrize("name,n,route,other", STATE_ROUTES)
def test_state_velocity_matches_finite_differences(name, n, route, other):
    # dy/dt' over the whole state, as a fresh array, with the caller's state left alone
    params = fig4_n_particles(n) if name == "fig4" else preset_params(name, n)
    kern = GuidanceKernel(params)
    for cfg in random_configurations(params, 20, np.random.default_rng(5)):
        state = cfg.state()
        before = state.tobytes()
        v = route(kern, cfg.t_prime, state)
        assert state.tobytes() == before
        assert v.shape == state.shape
        assert not np.shares_memory(v, state)
        assert not np.shares_memory(v, route(kern, cfg.t_prime, state))
        fd = other(kern, cfg.t_prime, state)
        assert np.max(np.abs(v - fd) / np.maximum(1.0, np.abs(v))) <= 1e-6


# fig2, fig3, fig4 and fig7 as preset, and the fig4 base at N = 0, 7, 16 and 100
BATCH_CASES = ([(name, None) for name in ("fig2", "fig3", "fig4", "fig7")]
               + [("fig4", n) for n in (0, 7, 16, 100)])
SINGLE_POINTER_CASES = [case for case in BATCH_CASES if case[0] != "fig7"]


def batch_params(name, n):
    return preset(name).params if n is None else fig4_n_particles(n)


def batch_rows(params, seed):
    """Five times and 40 random configurations as (x, y, z) rows."""
    cfgs = random_configurations(params, 40, np.random.default_rng(seed))
    x = np.array([c.x for c in cfgs])
    y = np.array([c.y for c in cfgs])
    z = np.array([c.z for c in cfgs]).reshape(len(cfgs), params.n_particles)
    return [c.t_prime for c in cfgs[:5]], x, y, z


@pytest.mark.parametrize("name,n", BATCH_CASES)
def test_batched_branch_eval_rows_equal_scalar_calls(name, n):
    params = batch_params(name, n)
    kern = GuidanceKernel(params)
    times, x, y, z = batch_rows(params, 21)
    # contiguous arrays, and the strided column views the FD stencil passes
    stacked = np.column_stack((x, y, z))
    for bx, by, bz in ((x, y, z), (stacked[:, 0], stacked[:, 1], stacked[:, 2:])):
        for t in times:
            batch = kern.branch_eval(t, bx, by, bz)
            assert all(v.shape == (x.size,) for v in batch)
            for i in range(x.size):
                one = kern.branch_eval(t, float(x[i]), float(y[i]), z[i])
                assert [v[i] for v in batch] == list(one)


@pytest.mark.parametrize("name,n", SINGLE_POINTER_CASES)
def test_branch_eval_mirror_swaps_the_branches_exactly(name, n):
    # single-pointer mode (and N = 0): (X', Z') -> (-X', -Z') swaps (lr1, s1) with (lr2, s2)
    params = batch_params(name, n)
    assert params.is_single_pointer or n == 0
    kern = GuidanceKernel(params)
    times, x, y, z = batch_rows(params, 22)
    for t in times:
        lr1, lr2, s1, s2 = kern.branch_eval(t, x, y, z)
        m1, m2, ms1, ms2 = kern.branch_eval(t, -x, y, -z)
        assert np.array_equal(m1, lr2) and np.array_equal(m2, lr1)
        assert np.array_equal(ms1, s2) and np.array_equal(ms2, s1)
        for i in range(x.size):
            a1, a2, p1, p2 = kern.branch_eval(t, float(x[i]), float(y[i]), z[i])
            b1, b2, q1, q2 = kern.branch_eval(t, -float(x[i]), float(y[i]), -z[i])
            assert (b1, b2, q1, q2) == (a2, a1, p2, p1)
