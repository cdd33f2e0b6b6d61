"""Trajectory classification, empty-wave suppression and ensemble statistics.

A trajectory "bounces" when X' never changes sign over the run (the
no-crossing behavior at the symmetry plane) and "crosses" otherwise; in a
slow-pointer scenario the bounces are the ones read as surrealistic, so
``bounce_fraction`` is the operative statistic.

The empty-wave ratio K compares the branch that the trajectory left behind
(opposite to its initial slit) with the branch it rides, evaluated at the
Bohmian configuration.  ``k_exact`` is the full amplitude ratio; its
pointer-only factor ``k_pointer`` is what the N-scaling argument is about,
together with the short-time approximations

    k_lin   = exp{-N [2 <zeta> dz' + dz'^2]}     (packet-relative mean <zeta>)
    k_gauss = exp{-N dz'^2}

where dz' = 2 gamma t' is the packet separation in primed units.  The
characteristic suppression time tau = 1/(gamma sqrt(N)) shrinks like
1/sqrt(N); ``tau_scaling_fit`` measures that exponent from threshold
crossings of k_pointer along a reference trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernel import GuidanceKernel
from .integrate import (EnsembleSpec, IntegratorOptions, Trajectory, ZInit,
                        crossing_time, integrate_trajectory, run_ensemble)
from .model import Configuration, ScenarioParams, fast_pointer_E
from .reduced import reduced_params

__all__ = [
    "ThresholdNotReached",
    "DegenerateFit",
    "TrajectoryVerdict",
    "ClassificationSummary",
    "classify",
    "classify_ensemble",
    "EmptyWaveReport",
    "empty_wave_ratio",
    "threshold_crossing_times",
    "tau_scaling_fit",
    "surreal_fraction_vs_N",
]

# exp() argument clip: keeps K strictly positive and finite where the true
# ratio would under/overflow doubles (only meaninglessly extreme ratios hit it)
_EXP_CLIP = 700.0


class ThresholdNotReached(RuntimeError):
    """K never fell below the threshold within the horizon."""


class DegenerateFit(ValueError):
    """The crossing times cannot support a power-law fit."""


@dataclass(frozen=True)
class TrajectoryVerdict:
    initial_slit: str          # "upper" | "lower"
    crossed_plane: bool        # X' changed sign somewhere along the run
    final_direction: int       # sign of dX'/dt' at the end of the run
    degenerate: bool = False

    @property
    def bounced(self) -> bool:
        return not self.crossed_plane


@dataclass(frozen=True)
class ClassificationSummary:
    verdicts: tuple[TrajectoryVerdict, ...]
    bounce_fraction: float
    crossing_fraction: float
    downward_fraction: float
    excluded: int              # degenerate trajectories left out of the fractions


def classify(traj: Trajectory) -> TrajectoryVerdict:
    """Bounce/cross verdict for one non-degenerate trajectory.

    Sign changes are detected between consecutive samples, which is the
    linear-interpolation criterion; the final direction comes from a
    finite difference over the last two samples.
    """
    if traj.degenerate:
        raise ValueError("cannot classify a degenerate (node-truncated) trajectory")
    if traj.n_samples < 2:
        raise ValueError("trajectory too short to classify")
    if traj.t[-1] < crossing_time(traj.params):
        raise ValueError("trajectory must span at least the packet crossing time")
    x = traj.x
    crossed = bool(np.any(x[:-1] * x[1:] < 0.0) or np.any(x[1:] == 0.0))
    final = float(x[-1] - x[-2])
    direction = int(final > 0) - int(final < 0)
    return TrajectoryVerdict(traj.initial_slit, crossed, direction)


def classify_ensemble(trajs: list[Trajectory]) -> ClassificationSummary:
    verdicts = []
    kept = []
    excluded = 0
    for traj in trajs:
        if traj.degenerate:
            verdicts.append(TrajectoryVerdict(traj.initial_slit, False, 0, degenerate=True))
            excluded += 1
        else:
            v = classify(traj)
            verdicts.append(v)
            kept.append(v)
    if kept:
        bounce = sum(v.bounced for v in kept) / len(kept)
        down = sum(v.final_direction < 0 for v in kept) / len(kept)
    else:
        bounce = down = 0.0
    return ClassificationSummary(tuple(verdicts), bounce, 1.0 - bounce if kept else 0.0,
                                 down, excluded)


@dataclass(frozen=True, eq=False)
class EmptyWaveReport:
    """Empty/effective amplitude ratios along one trajectory."""

    t: np.ndarray
    k_exact: np.ndarray        # full ratio, test-particle factor included
    k_pointer: np.ndarray      # pointer factor only (the N-scaling quantity)
    k_lin: np.ndarray
    k_gauss: np.ndarray
    tau: float                 # characteristic suppression time 1/(gamma sqrt(N))
    n_particles: int
    initial_slit: str


def _kexp(arg: np.ndarray) -> np.ndarray:
    return np.exp(np.clip(arg, -_EXP_CLIP, _EXP_CLIP))


def empty_wave_ratio(traj: Trajectory, params: ScenarioParams) -> EmptyWaveReport:
    """Exact and approximate K along a single-pointer trajectory.

    The pointer enters only through ``traj.sigma_hat``, read by the kernel of
    the one-particle twin, so k_lin and k_gauss take their N = 1 forms.
    """
    twin = reduced_params(params)
    kern = GuidanceKernel(twin)
    gamma = kern.pz * twin.rigid_xi()
    s_eff = 1.0 if traj.initial_slit == "upper" else -1.0

    t = traj.t
    sigma_hat = traj.sigma_hat
    log_k_exact = -s_eff * traj.log_omega
    _, _, z_part = kern.contrast(t, traj.x, sigma_hat[:, None])
    log_k_pointer = -s_eff * z_part

    dz = 2.0 * gamma * t
    zeta = s_eff * sigma_hat - gamma * t
    log_k_lin = -(2.0 * zeta * dz + dz * dz)
    log_k_gauss = -dz * dz
    tau = math.inf if gamma == 0.0 else 1.0 / gamma

    return EmptyWaveReport(t=t, k_exact=_kexp(log_k_exact), k_pointer=_kexp(log_k_pointer),
                           k_lin=_kexp(log_k_lin), k_gauss=_kexp(log_k_gauss),
                           tau=tau, n_particles=params.n_particles, initial_slit=traj.initial_slit)


def threshold_crossing_times(params: ScenarioParams, n_list, threshold: float,
                             opts: IntegratorOptions = IntegratorOptions()) -> list[float]:
    """First t' with k_pointer < threshold along the reference trajectory, per N.

    The reference launch (upper slit centre, Sigma_hat'(0) = 0) runs on the
    one-particle twin, at a cost independent of N.  The pointer factor (not
    the full k_exact) is thresholded: the test-particle factor is huge at
    launch and N-independent, so it would mask the pointer's suppression
    clock.  Crossings are refined by log-linear interpolation.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    times = []
    for n in n_list:
        twin = reduced_params(params.with_rigid_pointer(int(n)))
        init = Configuration(0.0, twin.d_prime, 0.0, (0.0,))
        traj = integrate_trajectory(init, twin, opts, backend="reduced")
        logk = np.log(empty_wave_ratio(traj, twin).k_pointer)
        logt = math.log(threshold)
        below = np.nonzero(logk < logt)[0]
        if below.size == 0:
            raise ThresholdNotReached(
                f"k_pointer never fell below {threshold!r} within the horizon for N={n}")
        i = int(below[0])
        if i == 0:
            times.append(float(traj.t[0]))
            continue
        frac = (logk[i - 1] - logt) / (logk[i - 1] - logk[i])
        times.append(float(traj.t[i - 1] + frac * (traj.t[i] - traj.t[i - 1])))
    return times


def tau_scaling_fit(params: ScenarioParams, n_list, threshold: float,
                    opts: IntegratorOptions = IntegratorOptions()) -> float:
    """Least-squares exponent of crossing time vs N; -1/2 is the prediction."""
    ns = [int(n) for n in n_list]
    if len(set(ns)) < 4:
        raise DegenerateFit("need at least 4 distinct N values")
    if max(ns) < 10 * min(ns):
        raise DegenerateFit("N values must span at least a decade")
    times = threshold_crossing_times(params, ns, threshold, opts)
    if any(t <= 0.0 for t in times):
        raise DegenerateFit("threshold crossed at t' = 0; nothing to fit")
    slope, _ = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(times), 1)
    return float(slope)


def surreal_fraction_vs_N(params: ScenarioParams, n_list, sigma_hat0: float = 0.0,
                          opts: IntegratorOptions = IntegratorOptions(),
                          ) -> list[tuple[int, float]]:
    """Bounce fraction per pointer size N, at fixed Sigma_hat'(0).

    Runs the standard launch grid for each N on the one-particle twin of
    the N-particle pointer, started at Sigma_hat'(0) = sigma_hat0, at a cost
    that does not depend on N.  Requires a slow-pointer base scenario
    (E < 1), where bounces exist to be counted.
    """
    if fast_pointer_E(params) >= 1.0:
        raise ValueError("base scenario must be slow-pointer (E < 1)")
    spec = EnsembleSpec(z_init=ZInit.common(sigma_hat0), backend="reduced")
    rows = []
    for n in n_list:
        n = int(n)
        twin = reduced_params(params.with_rigid_pointer(n))
        rows.append((n, classify_ensemble(run_ensemble(spec, twin, opts)).bounce_fraction))
    return rows
