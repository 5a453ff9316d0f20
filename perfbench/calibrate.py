"""Host-speed calibration for the end-to-end timings.

The machine this benchmark was written on changes speed by 25% and more
from one second to the next, in CPU time as much as in wall time, and
drifts for minutes; measured raw, five 20-second runs of one workload had
an interquartile range of 24% of their median.
A fixed loop of dictionary, tuple, frozenset and sorting work, much like
what seqtypes does, is therefore timed every CALIBRATE_EVERY seconds
between items.  An item's time is converted to reference seconds by
REFERENCE_S / (the median loop time within WINDOW_S of the item): the time
it would have taken on a host on which the loop takes REFERENCE_S.  A
set-up runs for up to a second at a stretch; the median set-up time is
converted with the median loop time of the samples taken between set-ups.

The loop and REFERENCE_S are part of the benchmark's definition: changing
either changes every end-to-end figure.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.010
CALIBRATE_EVERY = 0.2
WINDOW_S = 0.5


def calibration_loop() -> int:
    table = {}
    for i in range(6000):
        table[(i, i & 7, (i * 7) % 13)] = frozenset((i & 15, i & 3))
    ordered = sorted(table, key=lambda k: (k[2], k[1], k[0]))
    return sum(len(v) for v in table.values()) + len(ordered)


class HostClock:
    """Calibration samples over a run, as (end time, loop seconds)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []

    def sample(self) -> None:
        """Time the loop once, with the collector off so that the size of
        the program's heap does not change the loop's cost."""
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_loop()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.times.append(end)
        self.loops.append(end - start)

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY:
            self.sample()

    def reference(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.loops[lo:hi] or self.loops[max(0, lo - 1) : lo + 1]
        return (end - start) * REFERENCE_S / statistics.median(window)

    def speed(self, first: int = 0) -> float:
        """Median loop time of the samples from `first` on, as a share of
        REFERENCE_S."""
        return statistics.median(self.loops[first:]) / REFERENCE_S
