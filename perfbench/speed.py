"""Machine-speed calibration interleaved with the measured work.

On a shared machine the same computation can take twice as long from one
second to the next, and CPU time drifts with wall time, so the drift is
the processor's speed and not time stolen by other processes.  A
benchmark that reports raw seconds then measures the neighbours as much
as the program.  So a run times a fixed calibration loop at least every
``EVERY_S`` seconds, between operations and stages and never inside a
timed call, and reports each interval at reference speed: every stretch
of it between two calibrations is multiplied by the mean of ``REF_S`` over
their two loop times, and the calibrations themselves do not count.  The loop
is the benchmark's own code, so a change to the program moves the scaled
times and not the calibration.  Scaled times equal raw times while the
loop takes ``REF_S``, its median on the reference machine of README.md.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.008       # calibration time at the reference speed
EVERY_S = 0.1       # calibrate at most this often

_A = np.linspace(0.1, 0.7, 7)
_B = np.arange(6.0)


def _loop() -> float:
    """Scalar float arithmetic and small-array numpy, the mix of the program's stepper."""
    y = np.ones(3)
    s = 0.0
    for i in range(600):
        k = _A * (1.0 + 1e-6 * i)
        y = y + 1e-3 * (k[:6] @ _B) * y
        s += math.exp(-abs(math.sin(i * 0.01))) + math.cos(s)
        if not np.all(np.isfinite(y)):
            raise ArithmeticError("calibration loop diverged")
    return s


class Speedometer:
    def __init__(self):
        self.starts: list[float] = []    # perf_counter when each calibration began
        self.ends: list[float] = []      # ... and ended
        self.scales: list[float] = []    # REF_S over its loop time

    def tick(self, force: bool = False, loops: int = 1) -> None:
        """Calibrate, if forced or ``EVERY_S`` has passed since the last time.

        With ``loops`` > 1 the sample is the median of that many loop times,
        for the calibrations that bracket a pass or a set-up.
        """
        t0 = perf_counter()
        if not force and self.ends and t0 - self.ends[-1] < EVERY_S:
            return
        times = []
        for _ in range(loops):
            t = perf_counter()
            _loop()
            times.append(perf_counter() - t)
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self.scales.append(REF_S / statistics.median(times))

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] at reference speed, calibrations left out.

        Needs a calibration that ended by ``t0``; after the last one the
        scale of the last one holds.
        """
        i = bisect.bisect_right(self.ends, t0) - 1
        if i < 0:
            raise ValueError("no calibration before the interval")
        total = 0.0
        while True:
            last = i + 1 == len(self.starts)
            stop = t1 if last else min(t1, self.starts[i + 1])
            begin = max(t0, self.ends[i])
            if stop > begin:
                scale = self.scales[i] if last else 0.5 * (self.scales[i] + self.scales[i + 1])
                total += (stop - begin) * scale
            if last or self.starts[i + 1] >= t1:
                return total
            i += 1

    def raw(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] with the calibrations inside it left out."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.ends[j] - self.starts[j] for j in range(lo, hi))

    def median_loop_s(self) -> float:
        return REF_S / statistics.median(self.scales)
