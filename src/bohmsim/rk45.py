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
dense-output record) drives one of three forms of the stage arithmetic, which
differ only in ``attempt``, ``record`` and ``accept``.  ``solve`` calls ``rhs``
first on the array ``y0``, and that answer picks the form of the run (the
guidance kernel says which of its states answer which form).  A block answer is
(core, lin, basis) in place of a slope: the state is (x, y, Z), the slope's block
Z' is c Z + a B1 + b B2 for the two rows of ``basis``, where (x', y', c, a, b) =
core(t, x, y, lin . Z), and only ``core`` is called after.  One function,
``_block_slope``, states that slope as an array, adding b B2 only where B2 is not
all zeros; it gives both block forms their first slope and answers the one
starting-step probe that ``solve`` builds for every form (from ``rhs`` itself on
an array answer).

* floats, for a block answer whose Z is one float z.  Each stage state, the
  5th-order solution and the error estimate are the tableau written out over
  three named floats, with the array path's weights h a_ij; each stage calls
  ``core`` inline and forms z' = c z + a B1, adding b B2 only where B2 is not 0.
  A stage state is tested by one ``math.isfinite`` of its sum, and component by
  component only when the sum is not finite: exact, as an inf or NaN component
  makes the sum inf or NaN, and finite components whose sum overflows fall
  through.  The sums are Python's, left to right, so their bits do not depend on
  the BLAS build or the CPU.
* blocks, for a block answer whose Z is wider: every stage's Z stays in the span
  of (Z at the step's start, B1, B2), so a stage is five floats (x, y and Z's
  three coefficients) written out as on the float path.  Z itself, the error
  vector over it and the error norm over all components are formed once per
  attempt (``_BlockStages``).
* arrays, for any other answer, tuples of floats included.  One buffer holds the
  rows (y, k1..k7), and a weight matrix [1 | h A], with [0 | h E] as its last row,
  is filled once per attempt: each stage state 1*y + sum_j h a_ij k_j, and the
  error estimate, is one product of a weight row with the leading buffer rows,
  and a stage is tested by counting ``np.isfinite``.  No view of the buffer or of
  an array returned by ``rhs`` outlives a step, so ``rhs`` may reuse its output.

With the guidance kernel an attempt takes 15 us in a run on floats at N = 1,
7.5 us of it six core calls, and 24 us on blocks at N = 100 against 40 us in
arrays (best of 41 and of 15 runs, a 2-CPU x86-64 Xeon, Python 3.11, numpy 2.4).

Every form is linear in (y, k) with fixed coefficients, and on blocks c and
the coefficient of Z are even under a reflection (x, Z) -> (-x, -Z) of a flow
that is odd in (x, Z), so negation commutes with each form and mirrored starts
stay mirrored bit for bit.

Dense output uses the standard quartic interpolant for this pair, so requested
sample times are filled without constraining the step sequence.  Each accepted
step that covers samples is recorded, and all samples are evaluated in one pass
when the run ends.  The float and array paths record (t, h, y, k1..k7 as one flat
list) and share one dense output, which evaluates every sample in one batch.  The
block path records (t, h, (x, y), Z, k1..k7 flat over five floats), takes x, y and
the coefficients in that batch, and then Z with one stacked matrix-vector product
per recorded step.  Either way every sample is its own matrix-vector product, so
that its bits do not depend on which other samples are requested.
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
# the nonzero entries of _AE as Python floats, row by row, for the float path
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
    y: np.ndarray                 # (n_samples, dim) states at those times
    stats: SolverStats = field(default_factory=SolverStats)
    degenerate: bool = False      # truncated at a node


def _error_norm(err, abs_y0, abs_y1, rtol, atol, r) -> float:
    # the sum of squares of err / (atol + rtol * max(|y0|, |y1|)), computed in the scratch
    # buffer r; the caller takes the RMS over all its components
    np.multiply(np.maximum(abs_y0, abs_y1, out=r), rtol, out=r)
    np.divide(err, np.add(r, atol, out=r), out=r)
    return float(r.dot(r))


def _block_slope(answer: tuple, t: float, y: np.ndarray, raw: tuple | None = None) -> np.ndarray:
    """The slope at the array state y = (x, y, Z) from a block answer (core, lin, basis):
    (v_x, v_y, c Z + a B1 + b B2) as one array, with (v_x, v_y, c, a, b) = ``raw`` if given,
    else core(t, x, y, lin . Z).  b B2 is added only where B2 has a nonzero entry, as on
    the float path, so the bits are those of ``GuidanceKernel.velocity``."""
    core, lin, (b1, b2) = answer
    z = y[2:]
    vx, vy, c, a, b = raw or core(t, y.item(0), y.item(1), float(z.dot(lin)))
    vz = c * z + a * b1
    if _count_nonzero(b2):
        vz += b * b2
    return np.concatenate(((vx, vy), vz))


def _increments(ts, t, h, k, lo, hi, width):
    """(step, inc) for the samples ts[lo[0]:hi[-1]] of steps recorded as (t, h, k1..k7 flat over
    ``width`` components, lo, hi): each sample's step and its h sum_j k_j b_j(theta).

    Each sample is still its own matrix-vector product, and theta's powers are
    products of theta taken element by element.  Stacked, the per-sample copies
    of k^T P take 4 * width floats a sample: 16 MB for 513 samples at width 1002.
    """
    step = np.repeat(np.arange(len(t)), np.subtract(hi, lo))
    h = np.array(h)[step]
    th = (np.array(ts[lo[0]:hi[-1]]) - np.array(t)[step]) / h
    th2 = th * th
    tp = np.stack((th, th2, th2 * th, th2 * th2), axis=1)
    q = (np.array(k).reshape(-1, 7, width).transpose(0, 2, 1) @ _P)[step]
    return step, h[:, None] * (q @ tp[:, :, None])[:, :, 0]


def _flat_dense_output(ts, steps, out) -> None:
    """Every sample at once from the steps recorded as (t, h, y, k1..k7 flat, lo, hi)."""
    if steps:
        t, h, y, k, lo, hi = zip(*steps)
        # 1.6 times faster than np.array(k)
        k, y = (np.fromiter(chain.from_iterable(v), float) for v in (k, y))
        width = out.shape[1]
        step, inc = _increments(ts, t, h, k, lo, hi, width)
        out[lo[0]:hi[-1]] = y.reshape(-1, width)[step] + inc


class _FloatStages:
    """The stages of one step on three Python floats (x, y, z), written out component by
    component, from a block answer whose block is z (module docstring), with z' formed
    in the products and order of ``GuidanceKernel.velocity`` at N = 1.  ``attempt``
    returns a step's error norm, ``record`` what dense output needs of it, and
    ``accept`` moves to its end.  An attempt adds its core calls to ``n_rhs`` once, the
    call that raised included."""

    __slots__ = ("core", "lin", "b1", "b2", "rtol", "atol", "n_rhs", "f0", "y", "k1", "y_new", "ks")

    def __init__(self, rhs, t0: float, y0: np.ndarray, first: tuple, rtol: float, atol: float):
        self.core = first[0]
        (self.lin,), ((self.b1,), (self.b2,)) = (np.asarray(v, float).tolist() for v in first[1:])
        self.rtol, self.atol = rtol, atol
        self.n_rhs = 1
        self.y = tuple(y0.tolist())
        self.f0 = _block_slope(first, t0, y0)
        self.k1 = tuple(self.f0.tolist())

    def attempt(self, t: float, h: float) -> float:
        # the array path's weights h a_ij and h e_j; every sum runs left to right
        (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
         b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = [h * c for c in _TABLEAU]
        _, c2, c3, c4, c5, _, _ = _C
        core, lin, B1, B2, fin = self.core, self.lin, self.b1, self.b2, math.isfinite
        (y0, y1, y2), (p0, p1, p2) = self.y, self.k1
        n = 0
        try:
            z0, z1, z2 = y0 + a21 * p0, y1 + a21 * p1, y2 + a21 * p2
            if not fin(z0 + z1 + z2) and not (fin(z0) and fin(z1) and fin(z2)):
                raise IntegrationAbort("non-finite stage state")
            n = 1
            q0, q1, c, a, b = core(t + c2 * h, z0, z1, lin * z2)
            q2 = c * z2 + a * B1 + b * B2 if B2 else c * z2 + a * B1
            z0, z1, z2 = (y0 + a31 * p0 + a32 * q0, y1 + a31 * p1 + a32 * q1,
                          y2 + a31 * p2 + a32 * q2)
            if not fin(z0 + z1 + z2) and not (fin(z0) and fin(z1) and fin(z2)):
                raise IntegrationAbort("non-finite stage state")
            n = 2
            r0, r1, c, a, b = core(t + c3 * h, z0, z1, lin * z2)
            r2 = c * z2 + a * B1 + b * B2 if B2 else c * z2 + a * B1
            z0, z1, z2 = (y0 + a41 * p0 + a42 * q0 + a43 * r0, y1 + a41 * p1 + a42 * q1 + a43 * r1,
                          y2 + a41 * p2 + a42 * q2 + a43 * r2)
            if not fin(z0 + z1 + z2) and not (fin(z0) and fin(z1) and fin(z2)):
                raise IntegrationAbort("non-finite stage state")
            n = 3
            s0, s1, c, a, b = core(t + c4 * h, z0, z1, lin * z2)
            s2 = c * z2 + a * B1 + b * B2 if B2 else c * z2 + a * B1
            z0, z1, z2 = (y0 + a51 * p0 + a52 * q0 + a53 * r0 + a54 * s0,
                          y1 + a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1,
                          y2 + a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2)
            if not fin(z0 + z1 + z2) and not (fin(z0) and fin(z1) and fin(z2)):
                raise IntegrationAbort("non-finite stage state")
            n = 4
            u0, u1, c, a, b = core(t + c5 * h, z0, z1, lin * z2)
            u2 = c * z2 + a * B1 + b * B2 if B2 else c * z2 + a * B1
            z0, z1, z2 = (y0 + a61 * p0 + a62 * q0 + a63 * r0 + a64 * s0 + a65 * u0,
                          y1 + a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * u1,
                          y2 + a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * u2)
            if not fin(z0 + z1 + z2) and not (fin(z0) and fin(z1) and fin(z2)):
                raise IntegrationAbort("non-finite stage state")
            n = 5
            v0, v1, c, a, b = core(t + h, z0, z1, lin * z2)
            v2 = c * z2 + a * B1 + b * B2 if B2 else c * z2 + a * B1
            z0, z1, z2 = y7 = (y0 + b1 * p0 + b3 * r0 + b4 * s0 + b5 * u0 + b6 * v0,
                               y1 + b1 * p1 + b3 * r1 + b4 * s1 + b5 * u1 + b6 * v1,
                               y2 + b1 * p2 + b3 * r2 + b4 * s2 + b5 * u2 + b6 * v2)
            if not fin(z0 + z1 + z2) and not (fin(z0) and fin(z1) and fin(z2)):
                raise IntegrationAbort("non-finite stage state")
            n = 6
            w0, w1, c, a, b = core(t + h, z0, z1, lin * z2)
            w2 = c * z2 + a * B1 + b * B2 if B2 else c * z2 + a * B1
        finally:
            self.n_rhs += n
        self.y_new = y7
        self.ks = (p0, p1, p2, q0, q1, q2, r0, r1, r2, s0, s1, s2, u0, u1, u2, v0, v1, v2, w0, w1, w2)
        rtol, atol = self.rtol, self.atol  # max(|y|, |z|) in one call below
        d0 = ((e1 * p0 + e3 * r0 + e4 * s0 + e5 * u0 + e6 * v0 + e7 * w0)
              / (max(y0, -y0, z0, -z0) * rtol + atol))
        d1 = ((e1 * p1 + e3 * r1 + e4 * s1 + e5 * u1 + e6 * v1 + e7 * w1)
              / (max(y1, -y1, z1, -z1) * rtol + atol))
        d2 = ((e1 * p2 + e3 * r2 + e4 * s2 + e5 * u2 + e6 * v2 + e7 * w2)
              / (max(y2, -y2, z2, -z2) * rtol + atol))
        return math.sqrt((d0 * d0 + d1 * d1 + d2 * d2) / 3)

    def record(self) -> tuple:
        return self.y, self.ks

    dense_output = staticmethod(_flat_dense_output)

    def accept(self) -> None:
        self.y, self.k1 = self.y_new, self.ks[18:]  # FSAL


class _ArrayStages:
    """The stages of one step in the weight-matrix buffer; the interface of _FloatStages."""

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
        self.scratch = np.empty(dim)
        self.buf[0] = y0
        self.k[0] = f0
        self.y, self.abs_y = y0, np.abs(y0)

    def attempt(self, t: float, h: float) -> float:
        np.multiply(_AE, h, out=self.scaled)
        k, rhs, dim = self.k, self.rhs, self.scratch.size
        for i, c, w, rows in self.stages:
            yi = w.dot(rows)
            if _count_nonzero(np.isfinite(yi)) != dim:
                raise IntegrationAbort("non-finite stage state")
            self.n_rhs += 1
            k[i] = rhs(t + c * h, yi)
        # yi is now stage 7's state, the 5th-order solution
        self.y_new, self.abs_y_new = yi, np.abs(yi)
        return math.sqrt(_error_norm(self.err_row.dot(k), self.abs_y, self.abs_y_new,
                                     self.rtol, self.atol, self.scratch) / dim)

    def record(self) -> tuple:
        return self.y.tolist(), self.k.ravel().tolist()

    dense_output = staticmethod(_flat_dense_output)

    def accept(self) -> None:
        self.y, self.abs_y = self.y_new, self.abs_y_new
        self.buf[0] = self.y
        self.k[0] = self.k[6]  # FSAL; retries only overwrite rows 1-6


class _BlockStages:
    """The stages of one step with the state's block held as coefficients; the interface
    of _FloatStages.

    The state is (x, y, Z), and ``rhs`` answered the array y0 with (core, lin, basis):
    at a state whose Z is Z0 + g Z0 + d B1 + e B2, for the rows B1, B2 of ``basis``,
    core(t, x, y, lin . Z) gives (v_x, v_y, c, a, b), and the slope's block is
    c Z + a B1 + b B2, which is (c + c g, c d + a, c e + b) over the same three
    vectors.  So each stage state is the five floats (x, y, g, d, e) over the step's
    start Z0, written as the float path's sums with zero start coefficients, and
    lin . Z is lin . Z0 + (g lin . Z0 + d lin . B1 + e lin . B2).  A stage is tested
    like a float-path stage, lin . Z included.  Z itself is formed once per attempt,
    at the 5th-order solution, with the error vector, as one product of the two
    coefficient rows with (Z0, B1, B2); it is tested for finiteness, as a stage state
    is.  The error norm is the array path's, over all components.  At the step's end
    the coefficients restart at zero over the new Z0: FSAL gives the next first slope
    as stage 7's (v_x, v_y, c, a, b), and lin . Z0 is carried over from that stage.
    """

    __slots__ = ("core", "rtol", "atol", "n_rhs", "f0", "lin", "lb", "rows", "scratch", "xy", "zeta",
                 "z", "abs_z", "k1", "raw", "xy_new", "zeta_new", "z_new", "abs_z_new", "ks")

    def __init__(self, rhs, t0: float, y0: np.ndarray, first: tuple, rtol: float, atol: float):
        core, lin, basis = first
        lin = np.asarray(lin, dtype=float)
        self.core, self.lin, self.rtol, self.atol = core, lin, rtol, atol
        self.n_rhs = 0
        z0 = y0[2:].copy()
        self.rows = np.stack((z0, *basis))          # (Z0, B1, B2); row 0 follows the state
        self.lb = self.rows[1:].dot(lin).tolist()    # lin . B1, lin . B2
        self.scratch = np.empty(z0.size)
        self.zeta = float(z0.dot(lin))
        self.xy, self.z, self.abs_z = tuple(y0[:2].tolist()), z0, np.abs(z0)
        self.k1 = self._slope(t0, *self.xy, 0.0, 0.0, 0.0)
        self.f0 = _block_slope(first, t0, y0, self.raw)

    def _slope(self, t: float, x: float, y: float, g: float, d: float, e: float) -> tuple:
        zeta = self.zeta
        zeta += g * zeta + d * self.lb[0] + e * self.lb[1]
        fin = math.isfinite
        if not fin(x + y + g + d + e + zeta) and not all(map(fin, (x, y, g, d, e, zeta))):
            raise IntegrationAbort("non-finite stage state")
        self.n_rhs += 1
        vx, vy, c, a, b = self.raw = self.core(t, x, y, zeta)
        self.zeta_new = zeta
        return vx, vy, c + c * g, c * d + a, c * e + b

    def attempt(self, t: float, h: float) -> float:
        # the float path's weights h a_ij and h e_j; every sum runs left to right
        (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
         b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = [h * c for c in _TABLEAU]
        _, c2, c3, c4, c5, _, _ = _C
        slope = self._slope
        x0, y0 = self.xy
        p0, p1, p2, p3, p4 = k1 = self.k1
        q0, q1, q2, q3, q4 = k2 = slope(t + c2 * h, x0 + a21 * p0, y0 + a21 * p1,
                                        a21 * p2, a21 * p3, a21 * p4)
        r0, r1, r2, r3, r4 = k3 = slope(t + c3 * h, x0 + a31 * p0 + a32 * q0, y0 + a31 * p1 + a32 * q1,
                                        a31 * p2 + a32 * q2, a31 * p3 + a32 * q3, a31 * p4 + a32 * q4)
        s0, s1, s2, s3, s4 = k4 = slope(t + c4 * h, x0 + a41 * p0 + a42 * q0 + a43 * r0,
                                        y0 + a41 * p1 + a42 * q1 + a43 * r1,
                                        a41 * p2 + a42 * q2 + a43 * r2, a41 * p3 + a42 * q3 + a43 * r3,
                                        a41 * p4 + a42 * q4 + a43 * r4)
        u0, u1, u2, u3, u4 = k5 = slope(t + c5 * h, x0 + a51 * p0 + a52 * q0 + a53 * r0 + a54 * s0,
                                        y0 + a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1,
                                        a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2,
                                        a51 * p3 + a52 * q3 + a53 * r3 + a54 * s3,
                                        a51 * p4 + a52 * q4 + a53 * r4 + a54 * s4)
        v0, v1, v2, v3, v4 = k6 = slope(t + h,
                                        x0 + a61 * p0 + a62 * q0 + a63 * r0 + a64 * s0 + a65 * u0,
                                        y0 + a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * u1,
                                        a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * u2,
                                        a61 * p3 + a62 * q3 + a63 * r3 + a64 * s3 + a65 * u3,
                                        a61 * p4 + a62 * q4 + a63 * r4 + a64 * s4 + a65 * u4)
        s7 = (x0 + b1 * p0 + b3 * r0 + b4 * s0 + b5 * u0 + b6 * v0,
              y0 + b1 * p1 + b3 * r1 + b4 * s1 + b5 * u1 + b6 * v1,
              b1 * p2 + b3 * r2 + b4 * s2 + b5 * u2 + b6 * v2,
              b1 * p3 + b3 * r3 + b4 * s3 + b5 * u3 + b6 * v3,
              b1 * p4 + b3 * r4 + b4 * s4 + b5 * u4 + b6 * v4)
        w0, w1, w2, w3, w4 = k7 = slope(t + h, *s7)
        x7, y7, *inc = s7
        ex = e1 * p0 + e3 * r0 + e4 * s0 + e5 * u0 + e6 * v0 + e7 * w0
        ey = e1 * p1 + e3 * r1 + e4 * s1 + e5 * u1 + e6 * v1 + e7 * w1
        err = (e1 * p2 + e3 * r2 + e4 * s2 + e5 * u2 + e6 * v2 + e7 * w2,
               e1 * p3 + e3 * r3 + e4 * s3 + e5 * u3 + e6 * v3 + e7 * w3,
               e1 * p4 + e3 * r4 + e4 * s4 + e5 * u4 + e6 * v4 + e7 * w4)
        dz, err_z = np.array((inc, err)).dot(self.rows)
        z_new = self.z + dz
        if _count_nonzero(np.isfinite(z_new)) != z_new.size:
            raise IntegrationAbort("non-finite stage state")
        self.xy_new, self.z_new, self.abs_z_new = (x7, y7), z_new, np.abs(z_new)
        self.ks = (k1, k2, k3, k4, k5, k6, k7)
        rtol, atol, r = self.rtol, self.atol, self.scratch
        dx = ex / (max(abs(x0), abs(x7)) * rtol + atol)
        dy = ey / (max(abs(y0), abs(y7)) * rtol + atol)
        return math.sqrt((dx * dx + dy * dy + _error_norm(err_z, self.abs_z, self.abs_z_new,
                                                         rtol, atol, r)) / (r.size + 2))

    def record(self) -> tuple:
        k1, k2, k3, k4, k5, k6, k7 = self.ks
        return self.xy, self.z, (*k1, *k2, *k3, *k4, *k5, *k6, *k7)

    def dense_output(self, ts, steps, out) -> None:
        """Every sample from the steps recorded as (t, h, (x, y), Z0, k1..k7 flat over
        (x, y, g, d, e), lo, hi).  Z at a sample is (1 + g, d, e) times the rows
        (Z0, B1, B2) of its step: one stacked product per step, written into ``out``."""
        if steps:
            t, h, u, z, k, lo, hi = zip(*steps)
            step, inc = _increments(ts, t, h, k, lo, hi, 5)
            first = lo[0]
            out[first:hi[-1], :2] = np.array(u)[step] + inc[:, :2]
            coef = inc[:, None, 2:]
            coef[:, :, 0] += 1.0
            rows, out_z = self.rows.copy(), out[first:, None, 2:]
            for z0, a, b in zip(z, lo, hi):
                rows[0] = z0
                np.matmul(coef[a - first:b - first], rows, out=out_z[a - first:b - first])

    def accept(self) -> None:
        self.xy, self.zeta, self.k1 = self.xy_new, self.zeta_new, self.raw  # FSAL
        self.z, self.abs_z = self.z_new, self.abs_z_new
        self.rows[0] = self.z


def _initial_step(probe, t0, y0, f0, t_end, rtol, atol, max_step):
    # Hairer's starting-step heuristic, clipped to the step ceiling.  Overflow aborts
    # unwarned under ``solve``'s errstate: of a slope norm here, of the probe state in
    # the stage test of ``probe``.
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

    ``rhs`` first receives the array ``y0``.  If it answers (core, lin, basis),
    only ``core`` is called after, on floats; otherwise every later state comes as
    an array (see the module docstring).  ``rhs`` never sees a non-finite state:
    a non-finite ``y0`` or first slope, or a first slope whose error norm
    overflows, raises ``IntegrationAbort`` at once.  Overflow and invalid
    operations anywhere in the run, ``rhs`` included, are not warned: they
    give non-finite values, which meet these tests.  An accepted step too small
    to move t raises ``IntegrationAbort`` too.  ``t0`` and ``t_end`` must be
    finite, with t0 < t_end; they, the tolerances and ``max_step`` are taken
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
    out = np.empty((n_out, y0.size))
    dense: list[tuple] = []       # accepted steps that cover samples
    si = 0                        # next sample to serve
    if ts and ts[0] == t0:
        out[0] = y0
        si = 1

    with np.errstate(over="ignore", invalid="ignore"):  # once per run, rhs included
        try:
            first = rhs(t0, y0)
            block = type(first) is tuple and first and callable(first[0])
            form = (_ArrayStages if not block else _FloatStages if y0.size == 3 else _BlockStages)
            stages = form(rhs, t0, y0, first, rtol, atol)
        except NodeError:
            return SolverResult(np.array(ts[:si]), out[:si], SolverStats(n_rhs_evals=1), True)
        attempt, record, accept = stages.attempt, stages.record, stages.accept
        f0 = stages.f0
        if not np.isfinite(f0).all():
            raise IntegrationAbort(f"non-finite slope at t0={t0!r}")

        def probe(t: float, y: np.ndarray) -> np.ndarray:
            # the starting-step probe of every form, on an array state
            if _count_nonzero(np.isfinite(y)) != y.size:
                raise IntegrationAbort("non-finite stage state")
            stages.n_rhs += 1
            return _block_slope(first, t, y) if block else rhs(t, y)

        h = min(max(_initial_step(probe, t0, y0, f0, t_end, rtol, atol, max_step),
                    H_FLOOR), max_step)
        t = t0
        fac_old = 1e-4
        just_rejected = False
        n_steps = n_rejected = n_backoffs = n_capped = 0
        h_min, h_max = math.inf, 0.0

        def finish(degenerate: bool) -> SolverResult:
            stages.dense_output(ts, dense, out)
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
