"""Gauge of the machine's current speed, to take tenant noise out of timings.

On a shared 2-vCPU cloud VM (Intel Xeon, Python 3.11), where this gauge was
tuned, speed swings by a third or more over seconds to minutes with the load
of other tenants, in spells that last across whole runs.  So while a run
measures, an interval timer interrupts it every INTERVAL_S and times a fixed
integer loop (about 1 ms) that does not touch wpdcert.  A task's raw time is
then scaled by REF_S over the median loop time sampled during the task
(widened back to the last LEAST samples for short tasks): the reported times
are seconds at the loop's nominal speed.  On that VM this loop's time tracks
the slow spells of the lattice and polynomial workloads with a log-log slope
near 1, where a Fraction-heavy loop overshoots.

The loop time is included in the task times it interrupts (about 1%).
Changing the loop, INTERVAL_S or REF_S changes every time metric, so it
needs a new baseline.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
REF_S = 0.001
LEAST = 5
LOOP = 8_000


class Gauge:
    """Context manager sampling the loop from a SIGALRM handler."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end of the loop, loop seconds)
        self._previous = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            x = 0
            for i in range(LOOP):
                x = (x * 31 + i) & 0xFFFFFFFF
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] in seconds at the loop's nominal speed."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < LEAST:
            inside = [s for t, s in self.samples if t <= end][-LEAST:]
        return (end - start) * REF_S / statistics.median(inside)
