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
        z = cfg.z_array()
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
        t, x, y, z = cfg.t_prime, cfg.x, cfg.y, cfg.z_array()
        vx, vy, vz = kern.velocity(t, x, y, z)
        mx, my, mz = kern.velocity(t, -x, y, -z)
        assert mx == -vx
        assert my == vy
        assert np.array_equal(mz, -vz)
        log_omega, _, _ = kern.contrast(t, x, z)
        if abs(log_omega) > DOMINANT_LOG_CUTOFF:
            dominant += 1
        else:
            mixed += 1
    assert mixed > 0
    if name == "fig3":
        assert dominant > 0
