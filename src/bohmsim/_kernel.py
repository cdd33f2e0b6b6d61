"""Shared numerical core: branch evaluation and guidance velocities.

Every formula below is derived from the product-of-Gaussians branch

    Phi_+/- ~ exp{ -u_+/-^2/Dx - w^2/Dy - sum_n q_n^2/Dz }
              * exp{ i [ -/+ xi_x X' + xi_y Y' + sum_n Xi_n^{+/-} Z'_n
                         + (ax t/Dx) u^2 + (ay t/Dy) w^2 + (az t/Dz) sum q^2 ] }

with residuals u_+/- = X' -/+ (d' - beta t'), w = Y' - t',
q_n^{+/-} = Z'_n - gamma_n^{+/-} t', packet speeds
beta = xi_x/(r^2 xi_y), gamma_n = p_z Xi_n with p_z = mu R^2/(r^2 xi_y),
and spreading denominators D = 1 + (a t')^2 where ax = 2/(r^2 xi_y),
ay = 2/xi_y, az = 2 p_z.  Write g = a t'/D for the phase-curvature factors.

``branch_eval`` returns the two log-amplitudes and phases term by term,
for one configuration or M at once, with the two branches evaluated
stacked as one (2, ...) block; the finite-difference oracle is built on it
alone and evaluates its stencil through it in row blocks.
``velocity`` and ``contrast`` never form the branches.  They use the branch contrast, in
which the w-terms cancel and the pointer enters only through the single
dot product dXi . Z' (dXi = Xi^+ - Xi^-):

    log Omega = log R1/R2
              = 4 X' c_x/Dx + [2 p_z t' (dXi . Z') - t'^2 dG]/Dz
    delta_S   = S1 - S2
              = dXi . Z' - 2 xi_x X' - 4 g_x X' c_x
                - g_z [2 p_z t' (dXi . Z') - t'^2 dG]

where c_x = d' - beta t' and dG = |gamma^+|^2 - |gamma^-|^2.  The guidance
velocity of coordinate w with scale prefactor P_w is

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

with SXi = Xi^+ + Xi^-, c = 1 - 2 g_z p_z t' and
a = c half_dw + wcs 2 p_z t'/Dz: three scalar-times-vector operations
(two in single-pointer mode, where SXi = 0).

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
  negates v_x and v_z bit for bit.  Ensemble mirror symmetry in the tests
  relies on this.
"""

from __future__ import annotations

import math

import numpy as np

from .model import NODE_EPS, NodeError, ScenarioParams

__all__ = ["GuidanceKernel", "DOMINANT_LOG_CUTOFF"]

# |log Omega| above which the weaker branch (weight < e^-80) is ignored.
DOMINANT_LOG_CUTOFF = 40.0


class GuidanceKernel:
    """Precomputed scales for one scenario; all methods are pure."""

    __slots__ = (
        "n", "xi_x", "xi_y", "d", "beta",
        "px", "py", "pz", "ax", "ay", "az",
        "xi_pm", "gam_pm", "gam_p", "gam_m",
        "dxi", "dxi_pad", "pz_dxi_pad", "pz_sxi_pad", "dgam2",
    )
    _SIGNS = np.array([[1.0], [-1.0]])  # (+1, -1) down the branch axis of a stacked block

    def __init__(self, params: ScenarioParams):
        self.n = params.n_particles
        self.xi_x = params.xi_x
        self.xi_y = params.xi_y
        self.d = params.d_prime
        r2xy = params.r * params.r * params.xi_y
        self.px = 1.0 / r2xy
        self.py = 1.0 / params.xi_y
        self.pz = params.mu * params.R * params.R / r2xy
        self.beta = params.xi_x / r2xy
        self.ax = 2.0 / r2xy
        self.ay = 2.0 / params.xi_y
        self.az = 2.0 * self.pz
        # (Xi^+, Xi^-) and (gamma^+, gamma^-) as (2, 1, N): they broadcast against 1 or M rows
        self.xi_pm = np.array(params.pointer_velocities, float).reshape(-1, 2).T.copy()[:, None]
        self.gam_pm = self.pz * self.xi_pm
        xi_p, xi_m = self.xi_pm[:, 0]
        self.gam_p, self.gam_m = self.gam_pm[:, 0]
        # dXi padded to the state layout (X', Y', Z'): the leading zeros drop X' and Y'
        self.dxi_pad = np.zeros(self.n + 2)
        self.dxi = np.subtract(xi_p, xi_m, out=self.dxi_pad[2:])
        self.pz_dxi_pad = self.pz * self.dxi_pad
        if params.is_single_pointer:  # Xi^- = -Xi^+: SXi and dG vanish exactly
            self.pz_sxi_pad = None
            self.dgam2 = 0.0
        else:
            self.pz_sxi_pad = np.concatenate(([0.0, 0.0], self.pz * (xi_p + xi_m)))
            self.dgam2 = float(self.gam_p @ self.gam_p - self.gam_m @ self.gam_m)

    # -- packet geometry -------------------------------------------------

    def denominators(self, t: float) -> tuple[float, float, float]:
        """Spreading denominators (Dx, Dy, Dz) at time t'."""
        return (
            1.0 + (self.ax * t) ** 2,
            1.0 + (self.ay * t) ** 2,
            1.0 + (self.az * t) ** 2,
        )

    def spreading_factor(self, t) -> float | np.ndarray:
        """Pointer packet width growth sqrt(Dz); vectorizes over t."""
        return np.sqrt(1.0 + (self.az * t) ** 2)

    # -- branch evaluation -----------------------------------------------

    def branch_eval(self, t: float, x: float | np.ndarray, y: float | np.ndarray,
                    z: np.ndarray) -> np.ndarray:
        """(log_r1, log_r2, s1, s2) with common normalization dropped.

        One (4,) array for one configuration (scalars x, y and z of shape
        (N,)), one (4, M) array for M at once (x, y of shape (M,), z of shape
        (M, N)), all at the time t'.  The two branches are evaluated stacked,
        as (2, ...) blocks.  The pointer sums are one ``np.vecdot`` per row
        and branch, the same dot product for both shapes, so each row of a
        batched call equals the scalar call on that row bit for bit.
        """
        Dx, Dy, Dz = self.denominators(t)
        # x - (-c) is x + c exactly, so the lower branch keeps the bits of X' + c_x
        u = x - self._SIGNS * (self.d - self.beta * t)
        w = y - t
        q = z - self.gam_pm * t
        uq = u * u
        wq = w * w
        qq = np.vecdot(q, q)
        out = np.empty((4, *qq.shape[1:]))
        # -(a + b + c) as ((-a) - b) - c: the same bits in fewer array operations
        np.subtract(uq / -Dx - wq / Dy, qq / Dz, out=out[:2])
        gx = self.ax * t / Dx
        gyw = (self.ay * t / Dy) * wq
        gz = self.az * t / Dz
        s = (np.vecdot(z, self.xi_pm) - self._SIGNS * (self.xi_x * x)) + self.xi_y * y
        np.add(s + gx * uq + gyw, gz * qq, out=out[2:])
        return out if z.ndim == 2 else out[:, 0]

    # -- branch contrast -------------------------------------------------

    def _closed_form(self, t, x, zd):
        """Closed-form contrast terms at t' given X' and zd = dXi . Z'.

        Scalars or equal-shape arrays.  Returns
        (Dx, Dz, gx, gz, cx, x_part, z_part, delta_s), where
        x_part + z_part = log Omega.
        """
        Dx = 1.0 + (self.ax * t) ** 2
        Dz = 1.0 + (self.az * t) ** 2
        gx = self.ax * t / Dx
        gz = self.az * t / Dz
        cx = self.d - self.beta * t
        xc = x * cx
        z_num = (2.0 * self.pz) * t * zd - (t * t) * self.dgam2
        x_part = 4.0 * xc / Dx
        z_part = z_num / Dz
        delta_s = (zd - 2.0 * self.xi_x * x) - 4.0 * gx * xc - gz * z_num
        return Dx, Dz, gx, gz, cx, x_part, z_part, delta_s

    def contrast(self, t, x, z):
        """(log Omega, delta S, pointer part of log Omega).

        One configuration (scalars t, x and z of shape (N,)) or M samples
        at once (t, x of shape (M,), z of shape (M, N)).
        """
        *_, x_part, z_part, delta_s = self._closed_form(t, x, z @ self.dxi)
        return x_part + z_part, delta_s, z_part

    # -- guidance velocity -----------------------------------------------

    def velocity(self, t: float, state: np.ndarray,
                 node_floor: float = NODE_EPS) -> np.ndarray:
        """dy/dt' of the Bohmian flow at the state (X', Y', Z'_1..Z'_N), as a fresh array.

        The state is only read.  The pointer dot and v_z are taken on the
        whole state, against dXi padded with two zeros; entries 0 and 1 are
        then set to v_x and v_y.  Raises NodeError if the normalized density
        is below node_floor.
        """
        t = float(t)  # numpy scalars would slow every scalar operation below
        x, y = state.item(0), state.item(1)
        Dx, Dz, gx, gz, cx, x_part, z_part, d = self._closed_form(
            t, x, float(state.dot(self.dxi_pad)))
        l = x_part + z_part

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
            if rho_hat < node_floor:
                raise NodeError(rho_hat)
            if l >= 0:
                w1 = 1.0 / rho_hat
                w2 = e2 / rho_hat
            else:
                w1 = e2 / rho_hat
                w2 = 1.0 / rho_hat
            half_dw = 0.5 * (w1 - w2)
            wcs = el / rho_hat * math.sin(d)

        c = 1.0 - 2.0 * gz * self.pz * t
        a = c * half_dw + wcs * (2.0 * self.pz * t / Dz)
        v = (2.0 * self.pz * gz) * state
        v += a * self.pz_dxi_pad
        if self.pz_sxi_pad is not None:
            v += (0.5 * c) * self.pz_sxi_pad
        Dy = 1.0 + (self.ay * t) ** 2
        v[0] = self.px * (2.0 * gx * x - half_dw * (2.0 * self.xi_x + 4.0 * gx * cx)
                          + wcs * (4.0 * cx / Dx))
        v[1] = self.py * (self.xi_y + 2.0 * (self.ay * t / Dy) * (y - t))
        return v
