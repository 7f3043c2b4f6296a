"""Host-speed calibration for the benchmark's timings.

On a shared host, load from other tenants slows a single-threaded solve by
up to about 1.9x, in stretches from seconds to tens of minutes, so a raw
timing tells more about when it ran than about the code. The benchmark
therefore times a fixed loop of its own right before every timed call and
scales the call by NOMINAL_S / (loop time): the result is the call's time on
a host running at the speed where the loop takes NOMINAL_S.

The loop does what the solvers' Python layers do most: it reads attributes
of small objects and does float arithmetic, over 2000 records (about 150 KB).
Of the loops tried, it slows with the host's load about as much as the
solves do; a plain integer loop slows by only about 60 % as much, and numpy
array work by more (README, "Measuring on a shared machine"). An untimed
pass first brings its records into the cache, so what ran before it does
not change its time. It uses nothing from the solver package, so no change
to the package moves it.
"""

import random
import statistics
import time

RECORDS = 2000
NOMINAL_S = 0.0012  # the loop's time on an uncontended core of the reference host


class _Record:
    __slots__ = ("ready", "soc", "rate", "cap")

    def __init__(self, rng):
        self.ready = 100.0 * rng.random()
        self.soc = 50.0 * rng.random()
        self.rate = 1.0 + rng.random()
        self.cap = 100.0


_RECORDS = [_Record(random.Random(k)) for k in range(RECORDS)]


def loop_seconds():
    """One pass of the calibration loop, in seconds."""
    start = time.perf_counter()
    best = 0.0
    for r in _RECORDS:
        charge = min(r.cap - r.soc, 30.0 * r.rate)
        wait = max(0.0, r.ready - charge)
        best = max(best, 0.2 * charge + 0.4 * wait)
    for r in _RECORDS:
        best += 0.5 * (r.soc + r.rate)
    return time.perf_counter() - start


def speed_factor(passes=1):
    """NOMINAL_S over the median time of `passes` passes of the loop, after
    an untimed one."""
    loop_seconds()
    return NOMINAL_S / statistics.median(loop_seconds() for _ in range(passes))
