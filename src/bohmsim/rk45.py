"""Adaptive embedded Runge-Kutta 4(5) (Dormand-Prince) with dense output.

Plain explicit stepper for smooth non-stiff guidance fields.  Step size is
driven by the embedded 4th-order error estimate through a PI controller.
Two non-standard behaviors are built in for Bohmian trajectories:

* the right-hand side may raise ``model.NodeError`` when the local density
  is too small; the stepper then halves the step and retries, and if the
  step falls below ``H_FLOOR`` the trajectory is truncated at the last
  accepted point and flagged degenerate (exact nodes are measure zero, so
  this is a flag, not a failure); a start on a node is degenerate at once;
* non-finite stages are handled the same way, except that hitting the
  floor raises ``IntegrationAbort``.  Every component of a stage state is
  tested before ``rhs`` sees it: exact, and free of floating-point
  warnings on +/-inf.

One step controller (step ceiling, node backoff, non-finite halving, PI
control, step budget, a step that does not advance t, counts and the
dense-output record) drives one of two forms of the stage arithmetic, which
differ only in ``attempt``, ``record``, ``accept`` and ``slope``.  ``solve``
calls ``rhs`` first on the array ``y0`` = (x, y, Z), and that answer picks the
form of the run:

* pairs, for a pair answer (core, lin, basis) in place of a slope, as the guidance
  kernel's (``GuidanceKernel.coefficients``, alpha = sqrt(D_z)).  The slope of Z is
  c Z + a B1 + b B2 for the rows (B1, B2) of ``basis``, with (v_x, c, a, b, alpha) =
  core(t, x, u, w) at lin . Z = alpha u + w, alpha' = c alpha and (t/2)' = c t/2 + b.
  So Z = alpha K + beta B1 + (t/2) B2 for the whole run, with beta' = c beta + a and K
  fixed by Z at t0, and only (x, beta) is stepped, as two Python floats with the array
  path's weights h a_ij; y, which no slope reads, is not, and the samples hold (x,
  beta).  A stage calls ``core`` once, at u = lin . K and w = beta lin . B1 + (t/2)
  lin . B2, and its state is tested by one ``math.isfinite`` of its sum, w included,
  and part by part only when that is not finite, so finite parts whose sum overflows
  are stepped; at the 5th-order solution the test adds the bound alpha max|K| +
  |beta| max|B1| + (t/2) max|B2| on |Z|, so that a Z that would overflow aborts.  The
  sums are Python's, left to right, so their bits do not depend on the BLAS build
  or the CPU, and an attempt does no numpy work (``_PairStages``).
* arrays, for any other answer, tuples of floats included.  One buffer holds the
  rows (y, k1..k7), and a weight matrix [1 | h A], with [0 | h E] as its last row,
  is filled once per attempt: each stage state 1*y + sum_j h a_ij k_j, and the
  error estimate, is one product of a weight row with the leading buffer rows,
  and a stage is tested by counting ``np.isfinite``.  No view of the buffer or of
  an array returned by ``rhs`` outlives a step, so ``rhs`` may reuse its output.

Both forms take the error norm as the RMS over (x, Sigma_hat'), Sigma_hat' =
(1/sqrt(N)) sum_n Z_n (``reduced.sigma_hat_of``, 0 at N = 0) being the one-particle
twin's coordinate and what the analysis reads.  On pairs Sigma_hat' is alpha
Sigma_hat'(K) + beta Sigma_hat'(B1) + (t/2) Sigma_hat'(B2), and its error
Sigma_hat'(B1) times beta's.  The starting step reads the stepped state, so a pair
run's set-up also checks the error norm of Sigma_hat''s first slope, c Sigma_hat' +
a Sigma_hat'(B1) + b Sigma_hat'(B2), as the array form's does for every component.

With the guidance kernel a solve takes 12 us an attempt on pairs at N = 1 and 100,
against 80 us in arrays at N = 100 (fig4, best of 41 solves, a 2-CPU x86-64 Xeon,
Python 3.11, numpy 2.4).

Both forms are linear in (y, k) with fixed coefficients.  Under a reflection (x, Z) ->
(-x, -Z) of a flow odd in (x, Z) with B2 = 0, beta is odd and the norm's terms even,
so negation commutes with each form and mirrored starts stay mirrored bit for bit.

Dense output uses the standard quartic interpolant for this pair, so requested
sample times are filled without constraining the step sequence.  Each accepted
step that covers samples is recorded (t, h, y, k1..k7 as one flat list), and all
samples are evaluated in one batch when the run ends.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
# C function under np.count_nonzero's Python wrapper and dispatcher: the stage test runs often
from numpy._core.multiarray import count_nonzero as _count_nonzero

from .model import NodeError
from .reduced import sigma_hat_of

__all__ = ["IntegrationAbort", "SolverStats", "SolverResult", "solve"]

H_FLOOR = 1e-12
MAX_STEPS = 1_000_000

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)  # floats: t + c*h stays a float
# weights on (k1..k7): row i - 1 builds stage i + 1's state; the 5th-order row gives
# the new y, whose slope is the next k1 (FSAL); the last row is E = b5 - b4
_AE = np.array([
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])
# the nonzero entries of _AE as Python floats, row by row, for the pair form
_TABLEAU = tuple(a for row in _AE.tolist() for a in row if a)
# quartic dense-output coefficients for this pair (Shampine)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_BETA = 0.04          # PI controller memory
_EXPO = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2        # max shrink per step
_FAC_MAX = 10.0       # max growth per step


class IntegrationAbort(RuntimeError):
    """Non-finite state that step shrinking could not cure."""


@dataclass
class SolverStats:
    n_steps: int = 0
    n_rejected: int = 0
    n_node_backoffs: int = 0
    n_rhs_evals: int = 0          # rhs calls, including ones that raised
    n_capped: int = 0             # accepted steps taken at max_step
    h_min: float = 0.0            # smallest and largest accepted step (0 if none)
    h_max: float = 0.0


@dataclass
class SolverResult:
    t: np.ndarray                 # sample times actually reached
    y: np.ndarray                 # (n_samples, dim) stepped states at those times
    stats: SolverStats = field(default_factory=SolverStats)
    degenerate: bool = False      # truncated at a node


def _normed(v: np.ndarray) -> np.ndarray:
    """(x, Sigma_hat') of an array state or error (x, y, Z): what the error norm reads."""
    return np.array((v[0], sigma_hat_of(v[2:])))


def _test_parts(*parts: float) -> None:
    # a stage state whose sum is not finite is stepped only if each part is finite
    if not all(map(math.isfinite, parts)):
        raise IntegrationAbort("non-finite stage state")


def _flat_dense_output(ts, steps, out) -> None:
    """Every sample at once from the steps recorded as (t, h, y, k1..k7 flat, lo, hi): y at
    the step's start plus h sum_j k_j b_j(theta), with theta's powers taken element by
    element.  Stacked, the per-sample copies of k^T P take 4 * width floats a sample: 16 MB
    for 513 samples at width 1002."""
    if steps:
        t, h, y, k, lo, hi = zip(*steps)
        # 1.6 times faster than np.array(k)
        k, y = (np.fromiter(chain.from_iterable(v), float) for v in (k, y))
        width = out.shape[1]
        step = np.repeat(np.arange(len(t)), np.subtract(hi, lo))
        h = np.array(h)[step]
        th = (np.array(ts[lo[0]:hi[-1]]) - np.array(t)[step]) / h
        th2 = th * th
        tp = np.stack((th, th2, th2 * th, th2 * th2), axis=1)
        q = (k.reshape(-1, 7, width).transpose(0, 2, 1) @ _P)[step]
        out[lo[0]:hi[-1]] = y.reshape(-1, width)[step] + h[:, None] * (q @ tp[:, :, None])[:, :, 0]


class _PairStages:
    """The stages of one step on the two Python floats (x, beta) of a pair answer (module
    docstring): ``attempt`` returns a step's error norm, ``record`` what dense output
    needs of it, ``accept`` moves to its end and ``slope`` answers the starting-step
    probe.  An attempt adds its core calls to ``n_rhs`` once, the call that raised included."""

    __slots__ = ("core", "lins", "sigmas", "bounds", "rtol", "atol", "n_rhs", "f0", "y", "s",
                 "k1", "y_new", "s_new", "ks")

    def __init__(self, rhs, t0: float, y0: np.ndarray, first: tuple, rtol: float, atol: float):
        core, lin, basis = first
        self.core, self.rtol, self.atol = core, rtol, atol
        self.n_rhs = 1
        # lin . row, Sigma_hat'(row) and max|row| of the rows (Z(t0), B1, B2), once per run
        rows = np.stack((y0[2:], *basis))
        lins = [float(row.dot(lin)) for row in rows]
        sigmas = sigma_hat_of(rows).tolist()
        if not all(map(math.isfinite, lins + sigmas)):
            raise IntegrationAbort("non-finite pointer product at the start")
        (l0, l1, l2), (s0, s1, s2) = lins, sigmas
        m0, m1, m2 = np.abs(rows).max(1, initial=0.0).tolist()
        x0 = y0.item(0)
        vx, c, a, b, alpha = core(t0, x0, 0.0, l0)
        # beta(t0) = 0, so K = (Z(t0) - (t0/2) B2) / alpha(t0), and Z(t0) is K at t0 = 0
        g = 0.5 * t0
        self.lins = ((l0 - g * l2) / alpha, l1, 0.5 * l2)
        self.sigmas = ((s0 - g * s2) / alpha, s1, 0.5 * s2)
        self.bounds = ((m0 + g * m2) / alpha, m1, 0.5 * m2)
        self.y, self.s, self.k1 = (x0, 0.0), s0, (vx, a)
        self.f0 = np.array(self.k1)
        # the stepped slope leaves the pointer's out: Sigma_hat' moves as Z does, at c Sigma_hat'
        # + a Sigma_hat'(B1) + b Sigma_hat'(B2), and its error norm must not overflow either
        ds = (c * s0 + a * s1 + b * s2) / (abs(s0) * rtol + atol)
        if not ds * ds < math.inf:
            raise IntegrationAbort(f"slope norm overflows at t0={t0!r}")

    def slope(self, t: float, y: np.ndarray) -> np.ndarray:
        """The slope at the array state y = (x, beta), from one core call as in a stage."""
        x, beta = y.tolist()
        l0, l1, hl2 = self.lins
        vx, c, a, _, _ = self.core(t, x, l0, beta * l1 + t * hl2)
        return np.array((vx, c * beta + a))

    def attempt(self, t: float, h: float) -> float:
        # the array path's weights h a_ij and h e_j; every sum runs left to right
        (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
         b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = [h * c for c in _TABLEAU]
        _, c2, c3, c4, c5, _, _ = _C
        core, fin, (l0, l1, hl2) = self.core, math.isfinite, self.lins
        (y0, y1), (p0, p1) = self.y, self.k1
        n = 0
        try:
            ts = t + c2 * h
            z0, z1 = y0 + a21 * p0, y1 + a21 * p1
            zw = z1 * l1 + ts * hl2
            if not fin(z0 + z1 + zw):
                _test_parts(z0, z1, zw)
            n = 1
            q0, c, a, _, _ = core(ts, z0, l0, zw)
            q1 = c * z1 + a
            ts = t + c3 * h
            z0, z1 = y0 + a31 * p0 + a32 * q0, y1 + a31 * p1 + a32 * q1
            zw = z1 * l1 + ts * hl2
            if not fin(z0 + z1 + zw):
                _test_parts(z0, z1, zw)
            n = 2
            r0, c, a, _, _ = core(ts, z0, l0, zw)
            r1 = c * z1 + a
            ts = t + c4 * h
            z0, z1 = (y0 + a41 * p0 + a42 * q0 + a43 * r0, y1 + a41 * p1 + a42 * q1 + a43 * r1)
            zw = z1 * l1 + ts * hl2
            if not fin(z0 + z1 + zw):
                _test_parts(z0, z1, zw)
            n = 3
            s0, c, a, _, _ = core(ts, z0, l0, zw)
            s1 = c * z1 + a
            ts = t + c5 * h
            z0, z1 = (y0 + a51 * p0 + a52 * q0 + a53 * r0 + a54 * s0,
                      y1 + a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1)
            zw = z1 * l1 + ts * hl2
            if not fin(z0 + z1 + zw):
                _test_parts(z0, z1, zw)
            n = 4
            u0, c, a, _, _ = core(ts, z0, l0, zw)
            u1 = c * z1 + a
            ts = t + h
            z0, z1 = (y0 + a61 * p0 + a62 * q0 + a63 * r0 + a64 * s0 + a65 * u0,
                      y1 + a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * u1)
            zw = z1 * l1 + ts * hl2
            if not fin(z0 + z1 + zw):
                _test_parts(z0, z1, zw)
            n = 5
            v0, c, a, _, alpha = core(ts, z0, l0, zw)   # alpha at t + h, where y7 lies
            v1 = c * z1 + a
            z0, z1 = y7 = (y0 + b1 * p0 + b3 * r0 + b4 * s0 + b5 * u0 + b6 * v0,
                           y1 + b1 * p1 + b3 * r1 + b4 * s1 + b5 * u1 + b6 * v1)
            zw = z1 * l1 + ts * hl2
            (m0, m1, hm2), (g0, g1, hg2) = self.bounds, self.sigmas
            zb = alpha * m0 + abs(z1) * m1 + ts * hm2   # |Z| <= zb
            s7 = alpha * g0 + z1 * g1 + ts * hg2        # Sigma_hat'
            if not fin(z0 + z1 + zw + zb + s7):
                _test_parts(z0, z1, zw, zb, s7)
            n = 6
            w0, c, a, _, _ = core(ts, z0, l0, zw)
            w1 = c * z1 + a
        finally:
            self.n_rhs += n
        self.y_new, self.s_new = y7, s7
        self.ks = (p0, p1, q0, q1, r0, r1, s0, s1, u0, u1, v0, v1, w0, w1)
        rtol, atol, s = self.rtol, self.atol, self.s  # max(|y|, |z|) in one call below
        d0 = ((e1 * p0 + e3 * r0 + e4 * s0 + e5 * u0 + e6 * v0 + e7 * w0)
              / (max(y0, -y0, z0, -z0) * rtol + atol))
        d1 = ((e1 * p1 + e3 * r1 + e4 * s1 + e5 * u1 + e6 * v1 + e7 * w1) * g1
              / (max(s, -s, s7, -s7) * rtol + atol))
        return math.sqrt((d0 * d0 + d1 * d1) / 2)

    def record(self) -> tuple:
        return self.y, self.ks

    def accept(self) -> None:
        self.y, self.s, self.k1 = self.y_new, self.s_new, self.ks[12:]  # FSAL


class _ArrayStages:
    """The stages of one step in the weight-matrix buffer; the interface of _PairStages."""

    __slots__ = ("rhs", "rtol", "atol", "n_rhs", "f0", "y", "abs_y", "y_new", "abs_y_new",
                 "buf", "k", "scaled", "stages", "err_row", "scratch")

    def __init__(self, rhs, t0: float, y0: np.ndarray, f0, rtol: float, atol: float):
        self.rhs, self.rtol, self.atol = rhs, rtol, atol
        self.n_rhs = 1
        self.f0 = np.array(f0, dtype=float)
        dim = y0.size
        self.buf = np.empty((8, dim))      # rows (y, k1..k7)
        self.k = self.buf[1:]
        weights = np.zeros((7, 8))
        weights[:6, 0] = 1.0
        self.scaled = weights[:, 1:]
        self.stages = [(i, _C[i], weights[i - 1, :i + 1], self.buf[:i + 1]) for i in range(1, 7)]
        self.err_row = weights[6, 1:]
        self.scratch = np.empty(2)
        self.buf[0] = y0
        self.k[0] = f0
        self.y, self.abs_y = y0, np.abs(_normed(y0))

    def slope(self, t: float, y: np.ndarray):
        return self.rhs(t, y)

    def attempt(self, t: float, h: float) -> float:
        np.multiply(_AE, h, out=self.scaled)
        k, rhs, dim = self.k, self.rhs, self.y.size
        for i, c, w, rows in self.stages:
            yi = w.dot(rows)
            if _count_nonzero(np.isfinite(yi)) != dim:
                raise IntegrationAbort("non-finite stage state")
            self.n_rhs += 1
            k[i] = rhs(t + c * h, yi)
        # yi is now stage 7's state, the 5th-order solution; the RMS of the error over
        # atol + rtol max(|y|, |yi|) is taken in the scratch buffer r
        self.y_new, self.abs_y_new, r = yi, np.abs(_normed(yi)), self.scratch
        np.multiply(np.maximum(self.abs_y, self.abs_y_new, out=r), self.rtol, out=r)
        np.divide(_normed(self.err_row.dot(k)), np.add(r, self.atol, out=r), out=r)
        return math.sqrt(float(r.dot(r)) / 2)

    def record(self) -> tuple:
        return self.y.tolist(), self.k.ravel().tolist()

    def accept(self) -> None:
        self.y, self.abs_y = self.y_new, self.abs_y_new
        self.buf[0] = self.y
        self.k[0] = self.k[6]  # FSAL; retries only overwrite rows 1-6


def _initial_step(probe, t0, y0, f0, t_end, rtol, atol, max_step):
    # Hairer's starting-step heuristic on the stepped state, clipped to the step ceiling.
    # Overflow aborts unwarned under ``solve``'s errstate: of a slope norm here, of the
    # probe state in the stage test of ``probe``.
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, (t_end - t0) * 0.1, max_step)
    y1 = y0 + h0 * f0
    if d1 == math.inf:
        raise IntegrationAbort(f"slope norm overflows at t0={t0!r}")
    try:
        f1 = probe(t0 + h0, y1)
    except NodeError:
        return min(h0, max_step)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if d2 == math.inf:
        raise IntegrationAbort(f"slope norm overflows at t0={t0!r}")
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step, t_end - t0)


def solve(rhs, t0: float, y0, t_end: float, sample_times,
          rtol: float = 1e-8, atol: float = 1e-10, max_step: float = np.inf) -> SolverResult:
    """Integrate y' = rhs(t, y) over [t0, t_end], sampling at sample_times.

    ``rhs`` first receives the array ``y0`` = (x, y, Z).  If it answers a pair
    answer (core, lin, basis), only ``core`` is called after, on floats, and the
    samples hold (x, beta); otherwise every later state comes as an array, and the
    samples hold the state (see the module docstring).  ``rhs`` never sees a
    non-finite state: a non-finite ``y0``, pointer product of a pair answer or first
    slope, or a first slope whose error norm overflows, raises ``IntegrationAbort``
    at once.  Overflow and invalid operations anywhere in the run, ``rhs`` included,
    are not warned: they give non-finite values, which meet these tests.  An accepted
    step too small to move t raises ``IntegrationAbort`` too.  ``t0`` and ``t_end``
    must be finite, with t0 < t_end; they, the tolerances and ``max_step`` are taken
    as Python floats.
    ``sample_times`` must be strictly ascending within [t0, t_end] (the last
    may exceed t_end by 1e-12 and is then served from the last step); the
    first entry, if equal to t0, is served from the initial state.  Returns
    the samples reached (all of them unless the run degenerates at a node, t0 included).
    """
    y0 = np.asarray(y0, dtype=float)
    samples = np.asarray(sample_times, dtype=float)
    ts = samples.tolist()
    # Python floats: numpy scalars would make the counts and step sizes numpy scalars too
    t0, t_end, rtol, atol, max_step = map(float, (t0, t_end, rtol, atol, max_step))
    # written so that NaN fails; an infinite horizon would step without end
    if not -math.inf < t0 < t_end < math.inf:
        raise ValueError(f"t0={t0!r} and t_end={t_end!r} must be finite, with t0 < t_end")
    if ts and not (t0 <= ts[0] and ts[-1] <= t_end + 1e-12):
        raise ValueError("sample times must lie within [t0, t_end]")
    if not (np.diff(samples) > 0.0).all():  # NaN compares False, so it is refused too
        raise ValueError("sample times must be strictly ascending")
    # written so that NaN fails: a NaN h never drops below H_FLOOR, and the loop never ends
    if not (0 < rtol < math.inf and 0 < atol < math.inf and 0 < max_step):
        raise ValueError(f"rtol={rtol!r}, atol={atol!r} and max_step={max_step!r} must be "
                         "positive, and all but max_step finite")
    if not np.isfinite(y0).all():
        raise IntegrationAbort("non-finite initial state")

    n_out = len(ts)
    dense: list[tuple] = []       # accepted steps that cover samples
    si = int(bool(ts) and ts[0] == t0)   # next sample to serve: t0 is the start's

    with np.errstate(over="ignore", invalid="ignore"):  # once per run, rhs included
        pair = False
        try:
            first = rhs(t0, y0)
            pair = type(first) is tuple and first and callable(first[0])
            stages = (_PairStages if pair else _ArrayStages)(rhs, t0, y0, first, rtol, atol)
        except NodeError:
            start = np.array([(y0.item(0), 0.0) if pair else y0])
            return SolverResult(np.array(ts[:si]), start[:si], SolverStats(n_rhs_evals=1), True)
        attempt, record, accept = stages.attempt, stages.record, stages.accept
        y_start, f0 = np.array(stages.y), stages.f0
        if not np.isfinite(f0).all():
            raise IntegrationAbort(f"non-finite slope at t0={t0!r}")
        out = np.empty((n_out, y_start.size))
        out[:si] = y_start

        def probe(t: float, y: np.ndarray) -> np.ndarray:
            # the starting-step probe of both forms, on an array state
            if _count_nonzero(np.isfinite(y)) != y.size:
                raise IntegrationAbort("non-finite stage state")
            stages.n_rhs += 1
            return stages.slope(t, y)

        h = min(max(_initial_step(probe, t0, y_start, f0, t_end, rtol, atol, max_step),
                    H_FLOOR), max_step)
        t = t0
        fac_old = 1e-4
        just_rejected = False
        n_steps = n_rejected = n_backoffs = n_capped = 0
        h_min, h_max = math.inf, 0.0

        def finish(degenerate: bool) -> SolverResult:
            _flat_dense_output(ts, dense, out)
            stats = SolverStats(n_steps, n_rejected, n_backoffs, stages.n_rhs, n_capped,
                                h_min if n_steps else 0.0, h_max)
            return SolverResult(np.array(ts[:si]), out[:si], stats, degenerate)

        # each floor test reads `not h >= H_FLOOR`, which a NaN h fails too
        while t < t_end:
            if n_steps + n_rejected > MAX_STEPS:
                raise IntegrationAbort(f"step budget exceeded at t={t!r}")
            h = max_step if max_step < h else h  # min and max as comparisons: no builtin calls
            last_step = t + h >= t_end
            if last_step:
                h = t_end - t

            try:
                err = attempt(t, h)
            except NodeError:
                n_backoffs += 1
                h *= 0.5
                if not h >= H_FLOOR:
                    return finish(degenerate=True)
                continue
            except IntegrationAbort:
                h *= 0.5
                if not h >= H_FLOOR:
                    raise
                continue

            if not math.isfinite(err):
                h *= 0.5
                if not h >= H_FLOOR:
                    raise IntegrationAbort("non-finite error estimate")
                continue

            if err > 1.0:
                n_rejected += 1
                just_rejected = True
                h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
                if not h >= H_FLOOR:
                    return finish(degenerate=True)
                continue

            # accepted
            n_steps += 1
            n_capped += h == max_step
            h_min = h if h < h_min else h_min
            h_max = h if h > h_max else h_max
            t_new = t_end if last_step else t + h
            if t_new == t:   # h is below the float spacing at t: no step would move t
                raise IntegrationAbort(f"step {h!r} does not advance t={t!r}")

            if si < n_out and (last_step or ts[si] <= t_new):
                hi = n_out if last_step else bisect_right(ts, t_new, si)
                dense.append((t, h, *record(), si, hi))
                si = hi

            # PI step-size controller; no growth straight after a rejection
            fac = _SAFETY * err ** -_EXPO * fac_old ** _BETA if err > 0 else _FAC_MAX
            fac = fac if fac > _FAC_MIN else _FAC_MIN
            cap = 1.0 if just_rejected else _FAC_MAX
            h = h * (fac if fac < cap else cap)
            fac_old = 1e-4 if err < 1e-4 else err
            just_rejected = False
            t = t_new
            accept()

        return finish(degenerate=False)
