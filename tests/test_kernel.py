"""Closed-form branch contrast of the guidance kernel.

``branch_eval`` forms the two branches term by term and is what the
finite-difference oracle is built on; ``contrast`` and ``velocity`` use the
closed forms of log Omega and delta S instead.  These tests hold the two
routes together and pin the properties the integrator relies on.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from bohmsim._kernel import DOMINANT_LOG_CUTOFF, GuidanceKernel, scales
from bohmsim.integrate import integrate_trajectory, time_grid
from bohmsim.model import NodeError, ScenarioParams
from bohmsim.reduced import reduced_params
from bohmsim.scenario import preset, with_n_particles
from bohmsim.validate import random_configurations
from bohmsim.velocity import fd_velocity

from conftest import config, fig4_n_particles, spread_z0


def preset_params(name: str, n: int):
    sc = preset(name)
    return sc.params if n == sc.params.n_particles else with_n_particles(sc, n).params


def test_scales_are_the_raw_parameter_formulas():
    # away from the presets' shared base, so that no two of the scales coincide
    xi_x, xi_y, r, R, mu = 7.0, 13.0, 1.6, 0.7, 0.45
    groups = ((1, 10.0, 3.0), (1, 2.0, 5.0))
    params = ScenarioParams(xi_x, xi_y, r, R, mu, 2.2, groups)
    pz = mu * R**2 / (r**2 * xi_y)
    expected = (1 / (r**2 * xi_y), 1 / xi_y, pz, xi_x / (r**2 * xi_y),
                2 / (r**2 * xi_y), 2 / xi_y, 2 * pz)
    assert scales(params) == pytest.approx(expected, rel=1e-14, abs=0.0)
    kern = GuidanceKernel(params)
    assert kern.gam_p == pytest.approx([pz * 10.0, pz * 2.0], rel=1e-14, abs=0.0)
    assert kern.gam_m == pytest.approx([pz * 3.0, pz * 5.0], rel=1e-14, abs=0.0)
    assert kern.dxi.tolist() == [7.0, -3.0]


CASES = [(name, n) for name in ("fig2", "fig3", "fig4") for n in (1, 7, 100)] + [("fig7", 2)]


@pytest.mark.parametrize("name,n", CASES)
def test_closed_form_matches_branch_difference(name, n):
    params = preset_params(name, n)
    kern = GuidanceKernel(params)
    rng = np.random.default_rng(1000 + 10 * n + len(name))
    for cfg in random_configurations(params, 60, rng):
        z = cfg.state()[2:]
        lr1, lr2, s1, s2 = kern.branch_eval(cfg.t_prime, cfg.state())
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
        v = np.array(kern.velocity(t, np.concatenate(([x, y], z))))
        m = np.array(kern.velocity(t, np.concatenate(([-x, y], -z))))
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


@pytest.mark.parametrize("name,n", [("fig4", 1), ("fig7", 2), ("fig8", 2), ("fig4", 100)])
def test_velocity_is_the_scalar_core_bit_for_bit(name, n):
    # v = (v_x, v_y, c_1 Z' + a p_z dXi + b p_z SXi), with v_x, c_1, a and b from
    # ``coefficients`` at u = 0 and w = dXi . Z', and v_y = P_y [xi_y + 2 g_y (Y' - t')]
    params = preset_params(name, n)
    kern = GuidanceKernel(params)
    b1, b2 = kern.pz_basis
    for cfg in random_configurations(params, 100, np.random.default_rng(17)):
        t, state = cfg.t_prime, cfg.state()
        z = state[2:]
        vx, c1, a, b, _ = kern.coefficients(t, cfg.x, 0.0, float(z.dot(kern.dxi)))
        ayt = kern.ay * t
        vy = kern.py * (kern.xi_y + 2.0 * (ayt / (1.0 + ayt * ayt)) * (cfg.y - t))
        v = kern.velocity(t, state)
        assert type(v) is np.ndarray
        vz = c1 * z + a * b1
        if params.single_pointer_xi is None:
            vz += b * b2
        else:
            assert not b2.any()
        assert np.array((vx, vy, *vz)).tobytes() == v.tobytes()


@pytest.mark.parametrize("name,n", [("fig4", 1), ("fig7", 2), ("fig4", 100)])
def test_core_scalars_are_closed_forms_of_t(name, n):
    # c_1 = a_z^2 t'/D_z and b = 1/(2 D_z), whatever X' and the pointer: so alpha = sqrt(D_z)
    # solves alpha' = c_1 alpha and gamma = t'/2 solves gamma' = c_1 gamma + b, and the pair
    # form steps beta alone.  The core answers that alpha, and reads dXi . Z' as alpha u + w
    params = preset_params(name, n)
    kern = GuidanceKernel(params)
    rng = np.random.default_rng(29)
    horizon = time_grid(params)[0]
    for t, x, u, w in zip(rng.uniform(0.0, horizon, 200), rng.normal(0.0, 3.0, 200),
                          rng.normal(0.0, 2.0, 200), rng.normal(0.0, 2.0, 200)):
        t, x, u, w = float(t), float(x), float(u), float(w)
        dz = kern.denominators(t)[2]
        try:
            vx, c1, a, b, alpha = kern.coefficients(t, x, u, w)
        except NodeError:
            continue
        assert c1 == pytest.approx(kern.az * kern.az * t / dz, rel=1e-14, abs=1e-300)
        assert b == pytest.approx(0.5 / dz, rel=1e-15)
        assert alpha == math.sqrt(dz)
        ref = kern.coefficients(t, x, 0.0, alpha * u + w)
        assert np.array((vx, c1, a, b, alpha)).tobytes() == np.array(ref).tobytes()


# one-coordinate kernels: the reduced twins of fig2, fig3, fig4 and of fig4 at N = 1000
# (born-vs-N's widest), and one non-rigid particle (Xi, 0), which has SXi != 0 and dG != 0
ONE_POINTER_CASES = {
    **{name: reduced_params(preset(name).params) for name in ("fig2", "fig3", "fig4")},
    "fig4-N1000": reduced_params(fig4_n_particles(1000)),
    "fig4-(Xi,0)": replace(preset("fig4").params, pointer_groups=((1, 10.0, 0.0),)),
}


def node_states(kern, rng, count):
    """(t, x, z) near the nodes of a one-coordinate kernel: log Omega = 0, delta S = pi + delta.

    log Omega and delta S are affine in (X', Z') at fixed t', so three
    ``contrast`` calls give the map, and one solve puts a state on the node line.
    Uncoupled (dXi = 0), log Omega = 0 holds for every X' only at t' = d'/beta.
    """
    coupled = kern.dxi[0] != 0.0
    out = []
    for delta in (0.0, 1e-8, 3e-7, 1e-6, 1.5e-6, 3e-6, 1e-4):
        for _ in range(count):
            t = float(rng.uniform(0.05, 3.0)) if coupled else kern.d / kern.beta
            f0, f1, f2 = (np.array(kern.contrast(t, x, np.array([z]))[:2])
                          for x, z in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
            target = np.array([0.0, np.pi + delta]) - f0
            if coupled:
                x, z = np.linalg.solve(np.column_stack((f1 - f0, f2 - f0)), target)
            else:
                x, z = target[1] / (f1 - f0)[1], rng.normal()
            out.append((t, float(x), float(z)))
    return out


@pytest.mark.parametrize("name", ONE_POINTER_CASES)
def test_one_coordinate_velocity_is_the_array_path_bit_for_bit(name):
    # N = 1 works in Python floats; the reference is the N = 2 array path of the same
    # pointer plus an inert particle (Xi+- = 0), on v_x, v_y and v_z1.
    params = ONE_POINTER_CASES[name]
    kern = GuidanceKernel(params)
    inert = GuidanceKernel(replace(params, pointer_groups=(
        *params.pointer_groups, (1, 0.0, 0.0))))
    assert kern.n == 1 and inert.n == 2
    rng = np.random.default_rng(31)
    states = [(c.t_prime, c.x, c.z[0]) for c in random_configurations(params, 300, rng)]
    wide = [(float(rng.uniform(0.0, 3.0)), float(rng.uniform(-8.0, 8.0)),
             float(rng.normal(0.0, 4.0))) for _ in range(300)]
    signed_zeros = [(t, x, z) for t in (0.0, 0.7) for x in (0.0, -0.0, 2.5)
                    for z in (0.0, -0.0)]
    regimes = {"upper": 0, "lower": 0, "mixed": 0, "node": 0}
    for t, x, z in states + wide + signed_zeros + node_states(kern, rng, 6):
        y = float(rng.normal(t, 1.0))
        state = np.array([x, y, z])
        log_omega = kern.contrast(t, x, state[2:])[0]
        regime = ("upper" if log_omega > DOMINANT_LOG_CUTOFF else
                  "lower" if log_omega < -DOMINANT_LOG_CUTOFF else "mixed")
        try:
            v = kern.velocity(t, state)
        except NodeError as exc:
            with pytest.raises(NodeError) as ref:
                inert.velocity(t, np.array([x, y, z, float(rng.normal())]))
            assert ref.value.rho_hat == exc.rho_hat
            regimes["node"] += 1
            continue
        ref = inert.velocity(t, np.array([x, y, z, float(rng.normal())]))
        assert v.tobytes() == ref[:3].tobytes(), (t, x, y, z)
        regimes[regime] += 1
    assert all(regimes.values()), regimes


# the closed-form route under the plain ids, the finite-difference route under "-fd"
STATE_ROUTES = [pytest.param(name, n, route, other, id=f"{name}-{n}{suffix}")
                for route, other, suffix in ((GuidanceKernel.velocity, fd_velocity, ""),
                                             (fd_velocity, GuidanceKernel.velocity, "-fd"))
                for name, n in (("fig4", 0), ("fig3", 1), ("fig7", 2), ("fig4", 100))]


@pytest.mark.parametrize("name,n,route,other", STATE_ROUTES)
def test_state_velocity_matches_finite_differences(name, n, route, other):
    # dy/dt' over the whole state as a fresh array, with the caller's state left alone
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
    """Five times and 40 random configurations as state rows (X', Y', Z'_1..Z'_N)."""
    cfgs = random_configurations(params, 40, np.random.default_rng(seed))
    return [c.t_prime for c in cfgs[:5]], np.array([c.state() for c in cfgs])


@pytest.mark.parametrize("name,n", BATCH_CASES)
def test_batched_branch_eval_rows_equal_scalar_calls(name, n):
    params = batch_params(name, n)
    kern = GuidanceKernel(params)
    times, states = batch_rows(params, 21)
    # contiguous rows, and rows spaced apart in a larger array
    spaced = np.repeat(states, 2, axis=0)[::2]
    for rows in (states, spaced):
        for t in times:
            batch = kern.branch_eval(t, rows)
            assert all(v.shape == (len(states),) for v in batch)
            for i, state in enumerate(states):
                one = kern.branch_eval(t, state)
                assert [v[i] for v in batch] == list(one)


@pytest.mark.parametrize("name,n", SINGLE_POINTER_CASES)
def test_branch_eval_mirror_swaps_the_branches_exactly(name, n):
    # single-pointer mode (and N = 0): (X', Z') -> (-X', -Z') swaps (lr1, s1) with (lr2, s2)
    params = batch_params(name, n)
    assert params.single_pointer_xi is not None or n == 0
    kern = GuidanceKernel(params)
    times, states = batch_rows(params, 22)
    mirrored = states * np.array([-1.0, 1.0] + [-1.0] * params.n_particles)
    for t in times:
        lr1, lr2, s1, s2 = kern.branch_eval(t, states)
        m1, m2, ms1, ms2 = kern.branch_eval(t, mirrored)
        assert np.array_equal(m1, lr2) and np.array_equal(m2, lr1)
        assert np.array_equal(ms1, s2) and np.array_equal(ms2, s1)
        for state, mirror in zip(states, mirrored):
            a1, a2, p1, p2 = kern.branch_eval(t, state)
            b1, b2, q1, q2 = kern.branch_eval(t, mirror)
            assert (b1, b2, q1, q2) == (a2, a1, p2, p1)
