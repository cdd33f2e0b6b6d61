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
  tested, by counting ``np.isfinite``, before ``rhs`` sees it: exact, and
  free of floating-point warnings on +/-inf.

One buffer holds the rows (y, k1..k7), and a weight matrix [1 | h A], with
[0 | h E] as its last row, is filled once per attempt: each stage state
1*y + sum_j h a_ij k_j, and the error estimate, is one product of a weight
row with the leading buffer rows (negation commutes with it, so mirrored
starts stay mirrored bit for bit).  No view of the buffer or of an array
returned by ``rhs`` outlives a step, so ``rhs`` may reuse its output array.

Dense output uses the standard quartic interpolant for this pair, so
requested sample times are filled without constraining the step sequence.
Each accepted step that covers samples records (t, h, y, k^T P); all
samples are evaluated in one pass when the run ends, one stacked
matrix-vector product per recorded step.

Every sample is its own matrix-vector product, with the powers theta^j
taken as Python float powers, so that its bits do not depend on which
other samples are requested.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

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


def _error_norm(err, abs_y0, abs_y1, rtol, atol, r):
    # RMS of err / (atol + rtol * max(|y0|, |y1|)), computed in the scratch buffer r
    np.multiply(np.maximum(abs_y0, abs_y1, out=r), rtol, out=r)
    np.divide(err, np.add(r, atol, out=r), out=r)
    return math.sqrt(float(r.dot(r)) / r.size)


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol, max_step):
    # Hairer's starting-step heuristic, clipped to the step ceiling.
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, (t_end - t0) * 0.1, max_step)
    try:
        f1 = rhs(t0 + h0, y0 + h0 * f0)
    except NodeError:
        return min(h0, max_step)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step, t_end - t0)


def _dense_output(ts, steps, out) -> None:
    """Fill out[lo:hi] from each recorded step (t, h, y, q = k^T P, lo, hi)."""
    for t, h, y, q, lo, hi in steps:
        thetas = [(s - t) / h for s in ts[lo:hi]]
        tp = np.array([(th, th**2, th**3, th**4) for th in thetas])
        out[lo:hi] = y + h * (q @ tp[:, :, None])[:, :, 0]


def solve(rhs, t0: float, y0, t_end: float, sample_times,
          rtol: float = 1e-8, atol: float = 1e-10, max_step: float = np.inf) -> SolverResult:
    """Integrate y' = rhs(t, y) over [t0, t_end], sampling at sample_times.

    ``sample_times`` must be strictly ascending within [t0, t_end] (the last
    may exceed t_end by 1e-12 and is then served from the last step); the
    first entry, if equal to t0, is served from the initial state.  Returns
    the samples reached (all of them unless the run degenerates at a node, t0 included).
    """
    y0 = np.asarray(y0, dtype=float)
    ts = np.asarray(sample_times, dtype=float).tolist()
    if ts and not (t0 <= ts[0] and ts[-1] <= t_end + 1e-12):
        raise ValueError("sample times must lie within [t0, t_end]")
    if not (np.diff(ts) > 0.0).all():  # NaN compares False, so it is refused too
        raise ValueError("sample times must be strictly ascending")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    # written so that NaN fails: a NaN h never drops below H_FLOOR, and the loop never ends
    if not (0 < rtol < math.inf and 0 < atol < math.inf and 0 < max_step):
        raise ValueError(f"rtol={rtol!r}, atol={atol!r} and max_step={max_step!r} must be "
                         "positive, and all but max_step finite")

    dim = y0.size
    n_out = len(ts)
    out = np.empty((n_out, dim))
    dense: list[tuple] = []       # accepted steps that cover samples
    si = 0                        # next sample to serve
    if ts and ts[0] == t0:
        out[0] = y0
        si = 1

    buf = np.empty((8, dim))      # rows (y, k1..k7)
    k = buf[1:]
    weights = np.zeros((7, 8))
    weights[:6, 0] = 1.0
    scaled = weights[:, 1:]
    stages = [(i, _C[i], weights[i - 1, :i + 1], buf[:i + 1]) for i in range(1, 7)]
    err_row = weights[6, 1:]
    scratch = np.empty(dim)
    buf[0] = y0
    try:
        k[0] = rhs(t0, y0)
    except NodeError:
        return SolverResult(np.array(ts[:si]), out[:si], SolverStats(n_rhs_evals=1), True)
    h = min(max(_initial_step(rhs, t0, y0, k[0], t_end, rtol, atol, max_step), H_FLOOR),
            max_step)
    n_rhs = 2  # k1 and the starting-step probe
    t = t0
    y = y0
    abs_y = np.abs(y0)
    fac_old = 1e-4
    just_rejected = False
    n_steps = n_rejected = n_backoffs = n_capped = 0
    h_min, h_max = math.inf, 0.0

    def finish(degenerate: bool) -> SolverResult:
        _dense_output(ts, dense, out)
        stats = SolverStats(n_steps, n_rejected, n_backoffs, n_rhs, n_capped,
                            h_min if n_steps else 0.0, h_max)
        return SolverResult(np.array(ts[:si]), out[:si], stats, degenerate)

    while t < t_end:
        if n_steps + n_rejected > MAX_STEPS:
            raise IntegrationAbort(f"step budget exceeded at t={t!r}")
        h = max_step if max_step < h else h  # min and max as comparisons: no builtin calls
        last_step = t + h >= t_end
        if last_step:
            h = t_end - t
        np.multiply(_AE, h, out=scaled)

        try:
            for i, c, w, rows in stages:
                yi = w.dot(rows)
                if _count_nonzero(np.isfinite(yi)) != dim:
                    raise IntegrationAbort("non-finite stage state")
                n_rhs += 1
                k[i] = rhs(t + c * h, yi)
        except NodeError:
            n_backoffs += 1
            h *= 0.5
            if h < H_FLOOR:
                return finish(degenerate=True)
            continue
        except IntegrationAbort:
            h *= 0.5
            if h < H_FLOOR:
                raise
            continue

        # yi is now stage 7's state, the 5th-order solution
        abs_y_new = np.abs(yi)
        err = _error_norm(err_row.dot(k), abs_y, abs_y_new, rtol, atol, scratch)
        if not math.isfinite(err):
            h *= 0.5
            if h < H_FLOOR:
                raise IntegrationAbort("non-finite error estimate")
            continue

        if err > 1.0:
            n_rejected += 1
            just_rejected = True
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            if h < H_FLOOR:
                return finish(degenerate=True)
            continue

        # accepted
        n_steps += 1
        n_capped += h == max_step
        h_min = h if h < h_min else h_min
        h_max = h if h > h_max else h_max
        t_new = t_end if last_step else t + h

        if si < n_out and (last_step or ts[si] <= t_new):
            hi = n_out if last_step else bisect_right(ts, t_new, si)
            dense.append((t, h, y, k.T.dot(_P), si, hi))
            si = hi

        # PI step-size controller; no growth straight after a rejection
        fac = _SAFETY * err ** -_EXPO * fac_old ** _BETA if err > 0 else _FAC_MAX
        fac = fac if fac > _FAC_MIN else _FAC_MIN
        cap = 1.0 if just_rejected else _FAC_MAX
        h = h * (fac if fac < cap else cap)
        fac_old = 1e-4 if err < 1e-4 else err
        just_rejected = False
        t, y, abs_y = t_new, yi, abs_y_new
        buf[0] = yi
        k[0] = k[6]  # FSAL; retries only overwrite rows 1-6

    return finish(degenerate=False)
