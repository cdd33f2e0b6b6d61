"""Scenario parameters, branch evaluation and the fast-pointer discriminant.

The main oracle here is an independent transcription of the two branch
exponents using complex arithmetic (complex width 1 + 2iT instead of the
real/imaginary split the production kernel uses), evaluated per particle
in a plain loop, against ``GuidanceKernel.branch_eval``.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bohmsim._kernel import GuidanceKernel
from bohmsim.model import Configuration, ModeError, ScenarioParams, fast_pointer_E

from conftest import config


def branch_eval(cfg: Configuration, params: ScenarioParams):
    """(log_r1, log_r2, s1, s2) of the kernel at one configuration."""
    return GuidanceKernel(params).branch_eval(cfg.t_prime, cfg.state())


def oracle_branch_exponents(cfg: Configuration, params: ScenarioParams):
    """(log_r, s) per branch from the complex Gaussian exponents."""
    t, x, y = cfg.t_prime, cfg.x, cfg.y
    r2xy = params.r**2 * params.xi_y
    wx = 1 + 2j * t / r2xy
    wy = 1 + 2j * t / params.xi_y
    wz = 1 + 2j * params.mu * params.R**2 * t / r2xy
    beta = params.xi_x / r2xy
    out = []
    for sgn in (+1.0, -1.0):
        expo = -sgn * 1j * params.xi_x * x
        expo -= (x - sgn * (params.d_prime - beta * t)) ** 2 / wx
        expo += 1j * params.xi_y * y - (y - t) ** 2 / wy
        pairs = [(vp, vm) for count, vp, vm in params.pointer_groups for _ in range(count)]
        for zn, (vp, vm) in zip(cfg.z, pairs):
            v = vp if sgn > 0 else vm
            gam = params.mu * v * params.R**2 / r2xy
            expo += 1j * v * zn - (zn - gam * t) ** 2 / wz
        out.append((expo.real, expo.imag))
    return out


coords = st.floats(-4.0, 4.0)
times = st.floats(0.0, 8.0)


class TestScenarioParams:
    def test_rejects_nonpositive_groups(self):
        for field in ("xi_x", "xi_y", "r", "R", "mu", "d_prime"):
            kwargs = dict(xi_x=10.0, xi_y=10.0, r=1.0, R=1.0, mu=1.0, d_prime=3.0)
            kwargs[field] = 0.0
            with pytest.raises(ValueError):
                ScenarioParams(**kwargs)

    def test_rejects_nonfinite_velocities(self):
        with pytest.raises(ValueError):
            ScenarioParams(10, 10, 1, 1, 1, 3, ((1, math.inf, 0.0),))

    def test_each_pair_keeps_its_own_floats(self):
        # (0, 0) == (0.0, -0.0), yet each group stores its own signed zeros, as floats
        shared = (1, 0, 0)
        p = ScenarioParams(10, 10, 1, 1, 1, 3, (shared, (2, 0.0, -0.0), shared, [3, 2, -2.0]))
        stored = p.pointer_groups
        assert stored == ((1, 0.0, 0.0), (2, 0.0, -0.0), (1, 0.0, 0.0), (3, 2.0, -2.0))
        assert [math.copysign(1.0, m) for _, _, m in stored] == [1.0, -1.0, 1.0, -1.0]
        assert all(type(group) is tuple and type(group[0]) is int
                   and type(group[1]) is type(group[2]) is float for group in stored)
        # a count is an int >= 1, and a bool is not one
        for count in (0, -3, 2.0, True):
            with pytest.raises(ValueError, match="count"):
                ScenarioParams(10, 10, 1, 1, 1, 3, ((count, 1.0, -1.0),))
        with pytest.raises(ValueError, match="finite"):
            ScenarioParams(10, 10, 1, 1, 1, 3, ((3, 1.0, -1.0), (1, math.nan, 0.0)))
        # a configuration's pointer coordinates are stored as floats with the same bits
        z = Configuration(0.0, 3.0, 0.0, [2, np.float64(0.1), -0.0, np.float64(-0.0), 5.5]).z
        assert all(type(v) is float for v in z)
        assert [v.hex() for v in z] == [v.hex() for v in (2.0, 0.1, -0.0, -0.0, 5.5)]
        for bad in (math.nan, math.inf, np.float64(-math.inf)):
            with pytest.raises(ValueError, match="finite"):
                Configuration(0.0, 3.0, 0.0, (0.0,) * 3 + (bad,))

    def test_n_particles_tracks_table(self):
        p = ScenarioParams(10, 10, 1, 1, 1, 3).with_rigid_pointer(7, 2.0)
        assert p.n_particles == 7
        assert p.pointer_groups == ((7, 2.0, -2.0),)
        two = ScenarioParams(10, 10, 1, 1, 1, 3, ((3, 2.0, 0.0), (4, 0.0, 2.0)))
        assert two.n_particles == 7
        # a macroscopic pointer is stated in O(1); one too large to count in floats is not
        assert p.with_rigid_pointer(10**23).n_particles == 10**23
        with pytest.raises(ValueError, match=f"n={10**400}"):
            p.with_rigid_pointer(10**400)

    def test_single_pointer_predicate(self):
        assert ScenarioParams(10, 10, 1, 1, 1, 3, ((3, 2.0, -2.0),)).single_pointer_xi == 2.0
        # every group at (+Xi, -Xi) with one Xi is one rigid pointer, however it is split
        split = ScenarioParams(10, 10, 1, 1, 1, 3, ((3, 2.0, -2.0), (4, 2.0, -2.0)))
        assert split.single_pointer_xi == 2.0
        two = ScenarioParams(10, 10, 1, 1, 1, 3, ((1, 2.0, 0.0), (1, 0.0, 2.0)))
        assert two.single_pointer_xi is None
        # no pointer at all is not "single pointer"
        assert ScenarioParams(10, 10, 1, 1, 1, 3, ()).single_pointer_xi is None
        # a lone asymmetric pair breaks the mode
        assert ScenarioParams(10, 10, 1, 1, 1, 3,
                              ((1, 2.0, -2.0), (1, 2.0, -1.0))).single_pointer_xi is None

    def test_zero_velocity_is_single_pointer(self):
        p = ScenarioParams(10, 10, 1, 1, 1, 3).with_rigid_pointer(1, 0.0)
        assert p.single_pointer_xi == 0.0

    def test_rigid_pointer_family(self):
        p = ScenarioParams(10, 10, 1, 1, 1, 3, ((3, 2.0, -2.0),))
        assert p.rigid_xi() == 2.0
        assert p.with_rigid_pointer(7) == ScenarioParams(10, 10, 1, 1, 1, 3, ((7, 2.0, -2.0),))
        assert p.with_rigid_pointer(1, 5.0).pointer_groups == ((1, 5.0, -5.0),)
        for other in (ScenarioParams(10, 10, 1, 1, 1, 3, ((1, 2.0, 0.0), (1, 0.0, 2.0))),
                      ScenarioParams(10, 10, 1, 1, 1, 3, ())):
            with pytest.raises(ModeError):
                other.rigid_xi()
            with pytest.raises(ModeError):
                other.with_rigid_pointer(4)
            assert other.with_rigid_pointer(1, 2.0) == p.with_rigid_pointer(1)
        with pytest.raises(ValueError, match="n=0"):
            p.with_rigid_pointer(0)


class TestFastPointerE:
    def test_fig3_value(self, fig3_params):
        assert fast_pointer_E(fig3_params) == pytest.approx(3.0, rel=1e-12)

    def test_fig4_value(self, fig4_params):
        assert fast_pointer_E(fig4_params) == pytest.approx(0.12, rel=1e-12)

    def test_uncoupled_pointer(self, fig2_params):
        assert fast_pointer_E(fig2_params) == 0.0

    def test_two_pointer_mode_rejected(self):
        with pytest.raises(ModeError):
            fast_pointer_E(ScenarioParams(10, 10, 1, 1, 1, 3, ((1, 10.0, 0.0), (1, 0.0, 10.0))))

    def test_no_pointer_rejected(self):
        with pytest.raises(ModeError):
            fast_pointer_E(ScenarioParams(10, 10, 1, 1, 1, 3, ()))


class TestEvalBranches:
    def test_symmetric_midpoint(self, fig3_params):
        lr1, lr2, s1, s2 = branch_eval(config(0.0, 0.0, 0.0, [0.0]), fig3_params)
        assert lr1 - lr2 == 0.0
        assert s1 - s2 == 0.0

    def test_initial_log_omega_is_pure_x(self, fig3_params):
        d = fig3_params.d_prime
        lr1, lr2, _, _ = branch_eval(config(0.0, d, 0.0, [0.0]), fig3_params)
        assert lr1 - lr2 == pytest.approx(4.0 * d * d, rel=1e-12)
        # pointer coordinates contribute nothing at t' = 0, packets coincide
        for z in (-1.3, 0.7, 2.0):
            lr1, lr2, _, _ = branch_eval(config(0.0, d, 0.0, [z]), fig3_params)
            assert lr1 - lr2 == pytest.approx(4.0 * d * d, rel=1e-12)

    @staticmethod
    def assert_matches_oracle(cfg, params):
        lr1, lr2, s1, s2 = branch_eval(cfg, params)
        (olr1, os1), (olr2, os2) = oracle_branch_exponents(cfg, params)
        assert lr1 == pytest.approx(olr1, rel=1e-12, abs=1e-12)
        assert lr2 == pytest.approx(olr2, rel=1e-12, abs=1e-12)
        assert s1 == pytest.approx(os1, rel=1e-12, abs=1e-11)
        assert s2 == pytest.approx(os2, rel=1e-12, abs=1e-11)

    @given(t=times, x=coords, y=coords, z=coords)
    def test_matches_complex_oracle_fig4(self, t, x, y, z):
        params = ScenarioParams(10, 10, 1, 0.2, 1, 3).with_rigid_pointer(1, 10.0)
        self.assert_matches_oracle(config(t, x, y, [z]), params)

    @given(t=times, x=coords, y=coords,
           z=st.lists(coords, min_size=2, max_size=2))
    def test_matches_complex_oracle_two_pointers(self, t, x, y, z):
        params = ScenarioParams(10, 10, 1, 0.2, 1, 3, ((1, 10.0, 0.0), (1, 0.0, 10.0)))
        self.assert_matches_oracle(config(t, x, y, z), params)

    @given(t=times, x=coords, y=coords, z=coords)
    def test_branch_swap_antisymmetry_exact(self, t, x, y, z, fig4_params):
        lr1, lr2, s1, s2 = branch_eval(config(t, x, y, [z]), fig4_params)
        m1, m2, ms1, ms2 = branch_eval(config(t, -x, y, [-z]), fig4_params)
        assert (m1, m2, ms1, ms2) == (lr2, lr1, s2, s1)

    @given(t=times, x=coords, y=coords)
    def test_no_pointer_reduces_to_two_slit(self, t, x, y):
        """N = 0 must give the bare two-slit wave function."""
        self.assert_matches_oracle(config(t, x, y), ScenarioParams(10, 10, 1, 1, 1, 3, ()))

    def test_wrong_pointer_count_rejected(self, fig4_params):
        with pytest.raises(ValueError):
            branch_eval(config(0.0, 0.0, 0.0, [0.0, 0.0]), fig4_params)
