"""Shared numerical core: branch evaluation and guidance velocities.

Every formula below is derived from the product-of-Gaussians branch

    Phi_+/- ~ exp{ -u_+/-^2/Dx - w^2/Dy - sum_n q_n^2/Dz }
              * exp{ i [ -/+ xi_x X' + xi_y Y' + sum_n Xi_n^{+/-} Z'_n
                         + (ax t/Dx) u^2 + (ay t/Dy) w^2 + (az t/Dz) sum q^2 ] }

with residuals u_+/- = X' -/+ (d' - beta t'), w = Y' - t',
q_n^{+/-} = Z'_n - gamma_n^{+/-} t', packet speeds
beta = xi_x/(r^2 xi_y), gamma_n = p_z Xi_n with p_z = mu R^2/(r^2 xi_y),
and spreading denominators D = 1 + (a t')(a t') where ax = 2/(r^2 xi_y),
ay = 2/xi_y, az = 2 p_z.  Write g = a t'/D for the phase-curvature factors.

``branch_eval`` evaluates both branches for one state or M as rows, each coordinate
w of (X', Y', Z'_1..Z'_N) alike: per branch a centre c_w(t') = c_w(0) + v_w t' and a
wavenumber k_w, and a spreading rate a_w.  The finite-difference oracle is built on it
alone; a call on its stencil takes 9 us at N = 1 (13 rows) and 17 us at N = 16 (73 rows).
``coefficients`` and ``contrast`` never form the branches.  They use the branch contrast,
in which the w-terms cancel and the pointer enters only through the single
dot product dXi . Z' (dXi = Xi^+ - Xi^-):

    log Omega = log R1/R2
              = 4 X' c_x/Dx + [2 p_z t' (dXi . Z') - t'^2 dG]/Dz
    delta_S   = S1 - S2
              = dXi . Z' - 2 xi_x X' - 4 g_x X' c_x
                - g_z [2 p_z t' (dXi . Z') - t'^2 dG]

where c_x = d' - beta t' and dG = |gamma^+|^2 - |gamma^-|^2, which is
sum_g count_g (gamma_g^+ - gamma_g^-)(gamma_g^+ + gamma_g^-) over the
pointer's run-length groups (``ScenarioParams.pointer_groups``).  dG and
every other pointer term are checked once per group, in floats;
``GuidanceKernel.__init__`` alone expands the groups to per-particle arrays.
The guidance velocity of coordinate w with scale prefactor P_w is

    v_w = P_w [ grad_w S_bar
                + ((w1 - w2)/2) grad_w delta_S
                + wc sin(delta_S) (grad_w log R1 - grad_w log R2) ]

with S_bar = (S1+S2)/2, branch weights w1 = R1^2/rho, w2 = R2^2/rho,
wc = R1 R2/rho, rho = R1^2 + R2^2 + 2 R1 R2 cos(delta_S), and prefactors
P_x = 1/(r^2 xi_y), P_y = 1/xi_y, P_z = p_z.  Carried out, with
half_dw = (w1 - w2)/2 and wcs = wc sin(delta_S):

    v_x = P_x [2 g_x X' - half_dw (2 xi_x + 4 g_x c_x) + wcs 4 c_x/Dx]
    v_y = P_y [xi_y + 2 g_y w]
    v_z = p_z [(c/2) SXi + a dXi + 2 g_z Z']

with SXi = Xi^+ + Xi^-, c = 1 - 2 g_z p_z t' = 1/D_z and
a = c half_dw + wcs g_z.  So v_z = c_1 Z' + a p_z dXi + b p_z SXi, with
c_1 = 2 p_z g_z = a_z^2 t'/D_z and b = 1/(2 D_z): c_1 and b depend on t' alone, and
a and v_x only on t', X' and dXi . Z'.  alpha = sqrt(D_z) solves alpha' = c_1 alpha, and
t'/2 solves (t'/2)' = c_1 t'/2 + b, so a run from Z'(0) keeps
Z' = alpha Z'(0) + beta p_z dXi + (t'/2) p_z SXi with beta' = c_1 beta + a, beta(0) = 0:
the flow that couples to X' is the pair (X', beta), and Y' is ``velocity.y_closed_form``
(p_z SXi = 0 in single-pointer mode).  ``coefficients`` is the scalar core:
(v_x, c_1, a, b, alpha) from t', X' and dXi . Z' = alpha u + w.  Every velocity answer
is built on it:

* ``rk45``'s pair form steps (X', beta) for every analytic run, reduced runs and N = 0
  included, calling the core once a stage with u = dXi . Z'(0) and
  w = beta dXi . p_z dXi + (t'/2) dXi . p_z SXi; ``integrate_trajectory`` forms Y' and Z'
  at the samples;
* ``velocity``: the array (v_x, v_y, v_z) at a state, the core at u = 0 and
  w = dXi . Z' (in Python floats at N = 1), for the oracles, the checks and the
  N + 2 dimensional comparison; no analytic run steps it.

A core call takes 0.7-1.1 us, and a ``velocity`` call 1.9 us at N = 1 and 4.1 us at N = 100
(best of 9, a 2-CPU x86-64 Xeon, Python 3.11, numpy 2.4).

Numerical care taken here:

* log Omega comes from the closed form, free of the cancellation noise of
  subtracting two large total log-amplitudes;
* weights are computed after dividing by max(R1^2, R2^2), so nothing
  overflows no matter how lopsided the branches are;
* when |log Omega| exceeds DOMINANT_LOG_CUTOFF the empty branch is dropped
  entirely (its weight is below e^-80, far under any integration
  tolerance): half_dw = +/-1/2, wcs = 0, and no trig is evaluated;
* in single-pointer mode (Xi^- = -Xi^+, so dG = 0 and SXi = 0) every
  term above is odd in (X', Z'), so reflecting (X', Z') -> (-X', -Z')
  negates v_x, a and v_z bit for bit and leaves c_1, b and alpha as they are.
  Ensemble mirror symmetry in the tests relies on this.
"""

from __future__ import annotations

import math

import numpy as np

from .model import NODE_EPS, NodeError, ScenarioParams

__all__ = ["GuidanceKernel", "DOMINANT_LOG_CUTOFF", "scales"]

# |log Omega| above which the weaker branch (weight < e^-80) is ignored.
DOMINANT_LOG_CUTOFF = 40.0


def scales(params: ScenarioParams) -> tuple[float, float, float, float, float, float, float]:
    """The scalar scales (P_x, P_y, p_z, beta, ax, ay, az) of the module docstring.

    Positive, finite parameters can still give a product that overflows or
    underflows; ValueError unless every scale is positive and finite, and so
    is every pointer term the kernel forms from them.
    """
    return _checked(params)[0]


def _checked(params: ScenarioParams):
    """(scales, dG) once ``scales`` has checked both.  Each pointer term the kernel
    forms, dXi, p_z dXi, p_z SXi and gamma^+/-, is formed once per group, in floats
    with the kernel's bits; dG = sum_g count_g (gamma^+_g - gamma^-_g)(gamma^+_g +
    gamma^-_g) is the kernel's own, exactly 0 for a rigid pointer."""
    r2xy = params.r * params.r * params.xi_y
    if r2xy > 0:
        pz = params.mu * params.R * params.R / r2xy
        found = (1.0 / r2xy, 1.0 / params.xi_y, pz, params.xi_x / r2xy,
                 2.0 / r2xy, 2.0 / params.xi_y, 2.0 * pz)
        if all(0 < v < math.inf for v in found):
            dgam2 = 0.0
            for count, xi_p, xi_m in params.pointer_groups:
                gam_p, gam_m = pz * xi_p, pz * xi_m
                dgam2 += count * ((gam_p - gam_m) * (gam_p + gam_m))   # 0 when Xi- = -Xi+
                terms = (xi_p - xi_m, pz * (xi_p - xi_m), pz * (xi_p + xi_m), gam_p, gam_m, dgam2)
                if not all(map(math.isfinite, terms)):
                    raise ValueError("pointer_groups give a kernel term (Xi+ - Xi-, Xi+ + Xi-, "
                                     f"p_z Xi or dG, with p_z = {pz!r}) that is not finite")
            return found, dgam2
    raise ValueError("xi_x, xi_y, r, R and mu give a packet scale that is zero or not finite "
                     f"(r^2 xi_y = {r2xy!r})")


class GuidanceKernel:
    """Precomputed scales for one scenario; all methods are pure."""

    __slots__ = (
        "n", "xi_x", "xi_y", "d", "beta",
        "px", "py", "pz", "ax", "ay", "az",
        "centre0", "drift", "wavenumber", "rate", "prefactors", "gam_p", "gam_m",
        "dxi", "pz_basis", "pz_sxi", "dgam2", "one_z", "consts",
    )

    def __init__(self, params: ScenarioParams):
        self.n = params.n_particles
        self.xi_x = params.xi_x
        self.xi_y = params.xi_y
        self.d = params.d_prime
        found, self.dgam2 = _checked(params)
        self.px, self.py, self.pz, self.beta, self.ax, self.ay, self.az = found
        # the core's scalars, with the two products its expressions form first
        self.consts = (self.ax, self.az, self.d, self.beta, self.px, self.dgam2,
                       2.0 * self.pz, 2.0 * self.xi_x)
        # the one place the groups become per-particle arrays: branch_eval's rows c_w(0), v_w
        # and k_w as (2, 1, N + 2) down the branches (+/-), a_w and P_w as (N + 2,).  The lower
        # X' centre -d' + beta t' is -(d' - beta t') to the bit, so mirrors swap exactly
        groups = params.pointer_groups
        xi = np.array([(p, m) for _, p, m in groups], float).reshape(-1, 2).T  # Xi^+/- per group
        x_y = np.array((self.d, 0.0, -self.d, 0.0, -self.beta, 1.0, self.beta, 1.0,
                        -self.xi_x, self.xi_y, self.xi_x, self.xi_y)).reshape(3, 2, 2)
        per_group = np.concatenate((x_y, np.multiply.outer((0.0, self.pz, 1.0), xi)), axis=2)
        counts = [1, 1] + [count for count, _, _ in groups]
        self.centre0, self.drift, self.wavenumber = np.repeat(per_group, counts, axis=2)[:, :, None]
        self.rate, self.prefactors = np.repeat(
            ((self.ax, self.ay, self.az), (self.px, self.py, self.pz)), (1, 1, self.n), axis=1)
        self.gam_p, self.gam_m = self.drift[:, 0, 2:]
        xi_p, xi_m = self.wavenumber[:, 0, 2:]
        self.dxi = xi_p - xi_m
        # p_z SXi vanishes exactly for a rigid pointer (Xi^- = -Xi^+), as dG does, and is
        # then left out of velocity's sums (None)
        self.pz_basis = np.stack((self.pz * self.dxi, self.pz * (xi_p + xi_m)))
        self.pz_sxi = self.pz_basis[1] if self.pz_basis[1].any() else None
        # N = 1: (dXi, p_z dXi, p_z SXi) as Python floats, for velocity's float path
        self.one_z = (self.dxi.item(0), *self.pz_basis[:, 0].tolist()) if self.n == 1 else None

    # -- packet geometry -------------------------------------------------

    def denominators(self, t: float) -> tuple[float, float, float]:
        """Spreading denominators (Dx, Dy, Dz) at time t'."""
        return tuple(1.0 + (a * t) * (a * t) for a in (self.ax, self.ay, self.az))

    def spreading_factor(self, t) -> float | np.ndarray:
        """Pointer packet width growth sqrt(Dz); vectorizes over t."""
        azt = self.az * t
        return np.sqrt(1.0 + azt * azt)

    # -- branch evaluation -----------------------------------------------

    def branch_eval(self, t: float, states: np.ndarray) -> np.ndarray:
        """(log_r1, log_r2, s1, s2) with common normalization dropped.

        One (4,) array for one state (X', Y', Z'_1..Z'_N), one (4, M) array for M
        states as rows of an (M, N + 2) array, all at the time t'.  Each coordinate is
        treated alike: the residuals r = state - c(t') of both branches form one
        (2, M, N + 2) block, log R = sum r^2 (-1/D) and S = sum k X + sum (a t'/D) r^2.
        Each sum is one ``np.vecdot`` per row and branch, the same dot product for both
        shapes, so each row of a batched call equals the scalar call on that row bit
        for bit.
        """
        at = self.rate * t
        dd = at * at + 1.0  # D_w
        r = states - (self.centre0 + self.drift * t)
        r *= r
        out = np.empty((4, r.shape[1]))
        np.vecdot(r, np.divide(-1.0, dd), out=out[:2])
        np.add(np.vecdot(states, self.wavenumber), np.vecdot(r, at / dd), out=out[2:])
        return out if states.ndim == 2 else out[:, 0]

    # -- branch contrast -------------------------------------------------

    def contrast(self, t, x, z):
        """(log Omega, delta S, pointer part of log Omega).

        One configuration (scalars t, x and z of shape (N,)) or M samples
        at once (t, x of shape (M,), z of shape (M, N)).
        """
        zd = z @ self.dxi
        axt, azt = self.ax * t, self.az * t
        Dx = 1.0 + axt * axt
        Dz = 1.0 + azt * azt
        gx = axt / Dx
        gz = azt / Dz
        xc = x * (self.d - self.beta * t)
        z_num = (2.0 * self.pz) * t * zd - (t * t) * self.dgam2
        z_part = z_num / Dz
        delta_s = (zd - 2.0 * self.xi_x * x) - 4.0 * gx * xc - gz * z_num
        return 4.0 * xc / Dx + z_part, delta_s, z_part

    # -- guidance velocity -----------------------------------------------

    def coefficients(self, t: float, x: float, u: float, w: float) -> tuple:
        """(v_x, c_1, a, b, alpha) at t', X' and dXi . Z' = alpha u + w, all Python floats,
        with alpha = sqrt(D_z).

        The guidance velocity's pointer block is then v_z = c_1 Z' + a p_z dXi
        + b p_z SXi (module docstring), with c_1 = a_z^2 t'/D_z and b = 1/(2 D_z).
        A state Z' gives u = 0 and w = dXi . Z'; a pair state does not form Z'
        (``rk45``).  The closed form of ``contrast`` is written out again on the
        scalars of ``consts``, whose 2 p_z and 2 xi_x are the products its
        expressions form first, so the bits hold.
        Raises NodeError if the normalized density is below NODE_EPS.
        """
        ax, az, dp, beta, px, dgam2, pz2, xi_x2 = self.consts
        axt, azt = ax * t, az * t
        Dx = 1.0 + axt * axt
        Dz = 1.0 + azt * azt
        alpha = math.sqrt(Dz)
        zd = alpha * u + w
        gx = axt / Dx
        gz = azt / Dz
        cx = dp - beta * t
        xc = x * cx
        z_num = pz2 * t * zd - (t * t) * dgam2
        l = 4.0 * xc / Dx + z_num / Dz
        d = (zd - xi_x2 * x) - 4.0 * gx * xc - gz * z_num

        if l > DOMINANT_LOG_CUTOFF:
            half_dw = 0.5
            wcs = 0.0
        elif l < -DOMINANT_LOG_CUTOFF:
            half_dw = -0.5
            wcs = 0.0
        else:
            el = math.exp(-abs(l))
            e2 = el * el
            rho_hat = 1.0 + e2 + 2.0 * el * math.cos(d)
            if rho_hat < NODE_EPS:
                raise NodeError(rho_hat)
            if l >= 0:
                w1 = 1.0 / rho_hat
                w2 = e2 / rho_hat
            else:
                w1 = e2 / rho_hat
                w2 = 1.0 / rho_hat
            half_dw = 0.5 * (w1 - w2)
            wcs = el / rho_hat * math.sin(d)

        c = 1.0 / Dz   # 1 - 2 g_z p_z t'
        return (px * (2.0 * gx * x - half_dw * (xi_x2 + 4.0 * gx * cx) + wcs * (4.0 * cx / Dx)),
                pz2 * gz, c * half_dw + wcs * gz, 0.5 * c, alpha)

    def velocity(self, t: float, state: np.ndarray) -> np.ndarray:
        """dy/dt' of the Bohmian flow at the state (X', Y', Z'_1..Z'_N), a fresh array.

        The state is only read.  ``coefficients`` at dXi . Z' gives v_x and v_z, formed
        from the rows of ``pz_basis``, adding b p_z SXi only where p_z SXi is not all
        zeros; v_y = P_y [xi_y + 2 g_y (Y' - t')] is formed here, for the oracles and
        checks that read it: no analytic run steps Y'.  One pointer coordinate is
        worked in Python floats, the same products, as numpy's per-call cost is most
        of the work there.
        Raises NodeError if the normalized density is below NODE_EPS.
        """
        t = float(t)  # numpy scalars would slow every scalar operation below
        ayt = self.ay * t
        vy = self.py * (self.xi_y + 2.0 * (ayt / (1.0 + ayt * ayt)) * (state.item(1) - t))
        if self.one_z is not None:
            x, _, z = state.tolist()
            dxi, pz_dxi, pz_sxi = self.one_z
            vx, c1, a, b, _ = self.coefficients(t, x, 0.0, dxi * z)
            vz = c1 * z + a * pz_dxi
            return np.array((vx, vy, vz + b * pz_sxi if pz_sxi else vz))
        vx, c1, a, b, _ = self.coefficients(t, state.item(0), 0.0,
                                            float(state[2:].dot(self.dxi)))
        v = c1 * state
        v[2:] += a * self.pz_basis[0]
        if self.pz_sxi is not None:
            v[2:] += b * self.pz_sxi
        v[:2] = vx, vy
        return v
