"""Adaptive embedded Runge-Kutta 4(5) (Dormand-Prince) with dense output.

Plain explicit stepper for smooth non-stiff guidance fields.  Step size is
driven by the embedded 4th-order error estimate through a PI controller.
Two non-standard behaviors are built in for Bohmian trajectories:

* the right-hand side may raise ``model.NodeError`` when the local density
  is too small; the stepper then halves the step and retries, and if the
  step falls below ``H_FLOOR`` the trajectory is truncated at the last
  accepted point and flagged degenerate (exact nodes are measure zero, so
  this is a flag, not a failure);
* non-finite stages are handled the same way, except that hitting the
  floor raises ``IntegrationAbort``.

Dense output uses the standard quartic interpolant for this pair, so
requested sample times are filled without constraining the step sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import NodeError

__all__ = ["IntegrationAbort", "SolverStats", "SolverResult", "solve"]

H_FLOOR = 1e-12
MAX_STEPS = 1_000_000

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = _A[6]  # 5th-order propagation weights (FSAL: stage 7 is the next step's k1)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
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


@dataclass
class SolverResult:
    t: np.ndarray                 # sample times actually reached
    y: np.ndarray                 # (n_samples, dim) states at those times
    stats: SolverStats = field(default_factory=SolverStats)
    degenerate: bool = False      # truncated at a node
    t_reached: float = 0.0


def _error_norm(err, y0, y1, rtol, atol):
    r = err / (atol + rtol * np.maximum(np.abs(y0), np.abs(y1)))
    return math.sqrt(float(np.add.reduce(r * r)) / r.size)


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


def solve(rhs, t0: float, y0, t_end: float, sample_times,
          rtol: float = 1e-8, atol: float = 1e-10, max_step: float = np.inf,
          first_step: float | None = None) -> SolverResult:
    """Integrate y' = rhs(t, y) over [t0, t_end], sampling at sample_times.

    ``sample_times`` must be ascending within [t0, t_end]; the first entry,
    if equal to t0, is served from the initial state.  Returns the samples
    reached (all of them unless the run degenerates at a node).
    """
    y0 = np.asarray(y0, dtype=float)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size and (sample_times[0] < t0 or sample_times[-1] > t_end + 1e-12):
        raise ValueError("sample times must lie within [t0, t_end]")
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")

    stats = SolverStats()
    out_t: list[float] = []
    out_y: list[np.ndarray] = []
    si = 0
    if sample_times.size and sample_times[0] == t0:
        out_t.append(t0)
        out_y.append(y0.copy())
        si = 1

    t = t0
    y = y0
    f = rhs(t, y)  # initial state is required non-node by the caller
    h = first_step if first_step is not None else _initial_step(
        rhs, t0, y0, f, t_end, rtol, atol, max_step)
    h = min(max(h, H_FLOOR), max_step)
    fac_old = 1e-4
    just_rejected = False
    k = np.empty((7, y0.size))

    def finish(degenerate: bool) -> SolverResult:
        return SolverResult(np.array(out_t), np.array(out_y).reshape(len(out_t), y0.size),
                            stats, degenerate, t)

    while t < t_end:
        if stats.n_steps + stats.n_rejected > MAX_STEPS:
            raise IntegrationAbort(f"step budget exceeded at t={t!r}")
        h = min(h, max_step)
        last_step = t + h >= t_end
        if last_step:
            h = t_end - t

        try:
            k[0] = f
            for i in range(1, 7):
                yi = y + h * (_A[i] @ k[:i])
                if not np.isfinite(yi).all():
                    raise IntegrationAbort("non-finite stage state")
                k[i] = rhs(t + _C[i] * h, yi)
            y_new = y + h * (_B @ k[:6])
            err = _error_norm(h * (_E @ k), y, y_new, rtol, atol)
        except NodeError:
            stats.n_node_backoffs += 1
            h *= 0.5
            if h < H_FLOOR:
                return finish(degenerate=True)
            continue
        except IntegrationAbort:
            h *= 0.5
            if h < H_FLOOR:
                raise
            continue

        if not np.isfinite(err):
            h *= 0.5
            if h < H_FLOOR:
                raise IntegrationAbort("non-finite error estimate")
            continue

        if err > 1.0:
            stats.n_rejected += 1
            just_rejected = True
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            if h < H_FLOOR:
                return finish(degenerate=True)
            continue

        # accepted
        stats.n_steps += 1
        t_new = t_end if last_step else t + h

        if si < sample_times.size and sample_times[si] <= t_new:
            q = k.T @ _P  # (dim, 4)
            while si < sample_times.size and sample_times[si] <= t_new:
                theta = (sample_times[si] - t) / h
                tp = np.array([theta, theta**2, theta**3, theta**4])
                out_t.append(float(sample_times[si]))
                out_y.append(y + h * (q @ tp))
                si += 1

        # PI step-size controller; no growth straight after a rejection
        fac = _SAFETY * err ** -_EXPO * fac_old ** _BETA if err > 0 else _FAC_MAX
        cap = 1.0 if just_rejected else _FAC_MAX
        h = h * min(cap, max(_FAC_MIN, fac))
        fac_old = max(err, 1e-4)
        just_rejected = False
        t, y, f = t_new, y_new, k[6].copy()  # FSAL; copy: retries overwrite the stage rows

    return finish(degenerate=False)
