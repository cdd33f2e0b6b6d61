"""The sqrt(N) reduction and analytic pointer reconstruction.

The authoritative oracle for both is full N-body integration; the
reconstruction formula additionally carries its own spreading-law check.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from bohmsim import integrate, reduced
from bohmsim._kernel import GuidanceKernel
from bohmsim.integrate import IntegratorOptions, ZInit, integrate_trajectory
from bohmsim.model import Configuration, ModeError, ScenarioParams
from bohmsim.reduced import reconstruct_pointers, reduced_params
from bohmsim.scenario import preset

from conftest import fig4_n_particles, spread_z0

OPTS = IntegratorOptions(rel_tol=1e-10)


class TestReducedVelocity:
    def test_identity_at_n1(self, fig4_params):
        # the reduced backend runs the kernel of reduced_params, which is the
        # scenario itself at N = 1
        assert reduced_params(fig4_params) == fig4_params

    def test_sqrt_n_is_an_effective_velocity(self):
        # N = 100 at Xi = 1 must map onto N = 1 at Xi = 10 exactly
        p100 = ScenarioParams(10, 10, 1, 0.2, 1, 3).with_rigid_pointer(100, 1.0)
        p1 = ScenarioParams(10, 10, 1, 0.2, 1, 3).with_rigid_pointer(1, 10.0)
        assert reduced_params(p100) == p1

    def test_doubling_n_matches_parameter_map_bitwise(self):
        pn = ScenarioParams(10, 10, 1, 0.2, 1, 3).with_rigid_pointer(4, 1.0)
        pm = ScenarioParams(10, 10, 1, 0.2, 1, 3).with_rigid_pointer(1, 2.0)
        assert reduced_params(pn).pointer_groups == reduced_params(pm).pointer_groups
        init = Configuration(0.0, 3.0, 0.0, (0.15,) * 4)
        init1 = Configuration(0.0, 3.0, 0.0, (0.3,))
        a = integrate_trajectory(init, pn, OPTS, backend="reduced")
        b = integrate_trajectory(init1, pm, OPTS, backend="reduced")
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.sigma_hat, b.sigma_hat)

    def test_two_pointer_mode_rejected(self):
        p = ScenarioParams(10, 10, 1, 0.2, 1, 3, ((1, 10.0, 0.0), (1, 0.0, 10.0)))
        with pytest.raises(ModeError):
            reduced_params(p)
        with pytest.raises(ModeError):
            integrate_trajectory(Configuration(0.0, 3.0, 0.0, (0.0, 0.0)), p,
                                 backend="reduced")

    def test_full_system_oracle_n10(self):
        params = fig4_n_particles(10)
        init = Configuration(0.0, 2.6, 0.0, spread_z0(10, sigma_hat0=0.1))
        full = integrate_trajectory(init, params, OPTS, backend="full-analytic")
        red = integrate_trajectory(init, params, OPTS, backend="reduced")
        assert np.max(np.abs(full.sigma_hat - red.sigma_hat)) <= 1e-6
        assert np.max(np.abs(full.x - red.x)) <= 1e-6


class TestReconstruction:
    def test_initial_condition_exact(self, fig4_params):
        params = fig4_n_particles(5)
        z0 = np.array(spread_z0(5, sigma_hat0=0.3))
        t = np.array([0.0])
        sigma = np.array([z0.sum() / math.sqrt(5)])
        z = reconstruct_pointers(t, sigma, z0, params)
        assert np.allclose(z[0], z0, atol=1e-15)

    def test_equal_starts_ride_the_mean(self):
        params = fig4_n_particles(4)
        t = np.linspace(0.0, 6.0, 7)
        sigma = 0.3 * t + 0.1
        z0 = np.full(4, sigma[0] / math.sqrt(4))  # all equal, scaled sum matches sigma[0]
        z = reconstruct_pointers(t, sigma, z0, params)
        expect = sigma / math.sqrt(4)
        for j in range(4):
            assert np.allclose(z[:, j], expect, atol=1e-14)

    def test_against_full_integration_n5(self):
        params = fig4_n_particles(5)
        z0 = spread_z0(5, sigma_hat0=0.2)
        init = Configuration(0.0, 2.8, 0.0, z0)
        full = integrate_trajectory(init, params, OPTS, backend="full-analytic")
        red = integrate_trajectory(init, params, OPTS, backend="reduced")
        assert np.max(np.abs(full.z - red.z)) <= 1e-6

    def test_closure_to_1e12(self):
        params = fig4_n_particles(7)
        z0 = np.array(spread_z0(7, sigma_hat0=-0.4))
        t = np.linspace(0.0, 7.5, 100)
        sigma = -0.4 + 0.05 * t + 0.01 * t**2
        z = reconstruct_pointers(t, sigma, z0, params)
        closure = z.sum(axis=1) / math.sqrt(7)
        assert np.max(np.abs(closure - sigma)) <= 1e-12

    def test_sum_mismatch_rejected(self):
        params = fig4_n_particles(3)
        with pytest.raises(ValueError):
            reconstruct_pointers(np.array([0.0]), np.array([1.0]),
                                 np.zeros(3), params)

    def test_wrong_count_rejected(self):
        params = fig4_n_particles(3)
        with pytest.raises(ValueError):
            reconstruct_pointers(np.array([0.0]), np.array([0.0]),
                                 np.zeros(5), params)

    def test_deviations_follow_packet_spreading(self, fig4_params):
        # uncoupled pointer: every Z'_n(t') = Z'_n(0) * s(t') exactly
        params = ScenarioParams(10, 10, 1, 0.2, 1, 3).with_rigid_pointer(3, 0.0)
        z0 = (0.5, -0.2, 0.9)
        init = Configuration(0.0, 2.8, 0.0, z0)
        traj = integrate_trajectory(init, params, OPTS, backend="full-analytic")
        s = GuidanceKernel(params).spreading_factor(traj.t)
        expect = np.outer(s, np.array(z0))
        assert np.max(np.abs(traj.z - expect)) <= 1e-8

    def test_builds_only_the_twin_kernel(self, monkeypatch):
        # s(t') reads no pointer velocity: the twin's kernel gives the N-particle bits
        seen = []

        def spy(params):
            seen.append(params.n_particles)
            return GuidanceKernel(params)

        monkeypatch.setattr(reduced, "GuidanceKernel", spy)
        params = fig4_n_particles(1000)
        z0 = np.array(spread_z0(1000, sigma_hat0=0.3))
        t = np.linspace(0.0, 7.5, 100)
        reconstruct_pointers(t, np.full(t.size, z0.sum() / math.sqrt(1000)), z0, params)
        assert seen and max(seen) <= 1
        s = GuidanceKernel(params).spreading_factor(t)
        assert s.tobytes() == GuidanceKernel(reduced_params(params)).spreading_factor(t).tobytes()


def slit_centre_launch(name: str, n: int | None = None):
    """A preset's upper slit-centre launch on the reduced backend, at the
    preset's own pointer or at ``n`` particles with a seeded pointer draw."""
    sc = preset(name)
    if n is None:
        params, z0 = sc.params, sc.ensemble.z_init.draw(sc.params.n_particles)
    else:
        params, z0 = sc.params.with_rigid_pointer(n), ZInit.gaussian(5).draw(n)
    init = Configuration(0.0, params.d_prime, 0.0, tuple(z0))
    return integrate_trajectory(init, params, sc.integrator, backend="reduced")


@pytest.fixture(scope="module")
def wide_reduced():
    return slit_centre_launch("fig4", 10**4)


class TestPointersOnRead:
    """A reduced trajectory stores no pointer block; ``z`` is rebuilt on each read."""

    @pytest.mark.parametrize("name, n", [("fig9", None), ("fig12", None), ("fig4", 1000)])
    def test_read_is_the_reconstruction_bit_for_bit(self, name, n):
        traj = slit_centre_launch(name, n)
        expect = reconstruct_pointers(traj.t, traj.sigma_hat, np.asarray(traj.initial.z),
                                      traj.params)
        first, second = traj.z, traj.z
        assert first.shape == (traj.n_samples, traj.params.n_particles)
        assert first.tobytes() == expect.tobytes()
        assert second.tobytes() == first.tobytes()

    def test_no_block_is_stored(self, wide_reduced):
        held = vars(wide_reduced)
        assert "z" not in held
        sizes = [a.size for a in held.values() if isinstance(a, np.ndarray)]
        assert max(sizes) <= wide_reduced.n_samples + 10**4

    def test_repr_rebuilds_no_block(self, wide_reduced, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return reconstruct_pointers(*args)

        monkeypatch.setattr(integrate, "reconstruct_pointers", counting)
        text = repr(wide_reduced)
        assert not calls
        # the sample arrays alone: neither the N pointer pairs nor the N launch positions
        assert len(text) < 10**5

    def test_full_backend_stores_z(self, fig4_params):
        traj = integrate_trajectory(Configuration(0.0, 3.0, 0.0, (0.0,)), fig4_params)
        assert vars(traj)["z"] is traj.z

    def test_pickle_is_small_and_round_trips(self, wide_reduced):
        blob = pickle.dumps(wide_reduced)
        assert len(blob) < 2**20
        back = pickle.loads(blob)
        assert "z" not in vars(back)
        assert back.z.tobytes() == wide_reduced.z.tobytes()

    def test_replace_keeps_the_block_off(self, wide_reduced):
        moved = dataclasses.replace(wide_reduced, x=-wide_reduced.x)
        assert "z" not in vars(moved)
        assert moved.z.tobytes() == wide_reduced.z.tobytes()

    def test_unknown_names_stay_missing(self, wide_reduced):
        assert not hasattr(wide_reduced, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            wide_reduced.no_such_name
