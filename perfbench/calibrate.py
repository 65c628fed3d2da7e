"""Host-speed calibration for the timed intervals.

The host this benchmark runs on is shared: the same pure-Python work takes
1x or about 1.8x as long from one second to the next, and whole minutes
can sit at either level.  An op's timing alone therefore says as much
about the neighbours as about pushcalc.  So each timed interval is
divided by the host's slowness around it: the mean time of a fixed
calibration unit, run right before and right after the interval (and,
for work in this process, every 10 ms inside it), over the unit's time
on the host in its fast state.  REF_S only sets that scale: a slowness
of 1 is the speed of the 2-CPU Intel Xeon VM the benchmark was sized on.

The unit is a dict-and-tuple loop, which slows down with pushcalc's own
code: over 3-second windows it cut the spread of a push_braid loop from
0.37 to 0.05 of its median, where an integer-only loop cut it only to
0.17.  A bare interpreter start, tried for the CLI requests, tracked
their regime better over 5-second windows but made single requests
noisier, and so the tail of a run; the dict loop is used throughout.
"""
from __future__ import annotations

import gc
import os
import signal
import time

REF_S = 3.0e-4   # one unit() on the reference host


def unit() -> int:
    d: dict = {}
    for i in range(1500):
        k = (i & 31, i & 7)
        d[k] = d.get(k, 0) + 1
    return len(d)


def sample() -> float:
    """Wall time of one unit, with the cyclic collector off so that garbage
    the program left behind is not collected on its time."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    unit()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class Meter:
    """Slowness over one timed interval: a sample right before and right
    after it and, when a period is given, one every period seconds inside
    it from a timer signal.  The time those inner samples take is kept in
    `spent` so the caller can take it out of the interval.  Inner samples
    are only for work done in this process: one run while a child runs
    would take the child's CPU."""

    def __init__(self, period: float | None = None) -> None:
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        if period:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [sample()]
        self.spent = 0.0
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def disarm(self) -> None:
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def slowness(self) -> float:
        """Call after disarm(): mean sample time over REF_S."""
        self.samples.append(sample())
        return sum(self.samples) / (len(self.samples) * REF_S)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the calibration
    runs where the timed work runs (the two CPUs slow down independently)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
