"""Calibration loop and the conversion to reference seconds.

The machine this benchmark runs on drifts in speed from second to second
and from minute to minute, as other tenants' load comes and goes.  Every
timed region is therefore paired with a fixed pure-Python loop run in the
same process: after each region the loop runs for SHARE of the region's
time, and at least every CADENCE_S.  A measured time t becomes
t * NOMINAL_LOOP_S / loop, where loop is the median loop time near the
region: within SPAN_S of it, or within its own length for longer regions.
"""

import bisect
import statistics
import time
from fractions import Fraction

# Median loop time on the reference machine (2 vCPU, Python 3.11.7);
# reference seconds are seconds on a machine whose loop takes this long.
NOMINAL_LOOP_S = 0.0023
BURST = 10
WINDOW = 9
SHARE = 0.05
CADENCE_S = 0.05
SPAN_S = 0.5

_MATRIX = [
    [Fraction(1, i + j + 1) + (1 if i == j else 0) for j in range(10)]
    for i in range(10)
]


def calibration_loop():
    """Determinant of a fixed 10x10 rational matrix by exact elimination."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    det = Fraction(1)
    for j in range(n):
        piv = a[j][j]
        det *= piv
        for i in range(j + 1, n):
            f = a[i][j] / piv
            if f:
                row_i, row_j = a[i], a[j]
                for k in range(j, n):
                    row_i[k] -= f * row_j[k]
    return det


class Calibrator:
    """Loop samples interleaved with timed regions, looked up by time.

    After each timed region the loop runs until its own time reaches SHARE
    of the region's, carrying the remainder over, and at least once every
    CADENCE_S; so the loop samples the machine close to the work.
    """

    def __init__(self):
        self.stamps = []
        self.loops = []
        self._debt = 0.0

    def sample(self):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.loops.append(t1 - t0)
        return t1 - t0

    def burst(self, n=BURST):
        for _ in range(n):
            self.sample()

    def add(self, stamps, loops):
        """Merge samples another process took after this one's last sample."""
        self.stamps.extend(stamps)
        self.loops.extend(loops)

    def after(self, seconds: float):
        """Pay the loop time owed for a timed region of `seconds`."""
        self._debt += SHARE * seconds
        if self._debt <= 0 and time.perf_counter() - self.stamps[-1] >= CADENCE_S:
            self._debt = 1e-9
        while self._debt > 0:
            self._debt -= self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_LOOP_S over the median loop time near the region [t0, t1].

        Near means within max(SPAN_S, t1 - t0) of its middle, and at least
        the WINDOW samples nearest to it.
        """
        at, span = (t0 + t1) / 2, max(SPAN_S, t1 - t0)
        lo = bisect.bisect_left(self.stamps, at - span)
        hi = bisect.bisect_right(self.stamps, at + span)
        if hi - lo < WINDOW:
            k = bisect.bisect_left(self.stamps, at)
            lo = max(0, min(k - WINDOW // 2, len(self.loops) - WINDOW))
            hi = min(len(self.loops), lo + WINDOW)
        return NOMINAL_LOOP_S / statistics.median(self.loops[lo:hi])
