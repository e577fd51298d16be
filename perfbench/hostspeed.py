"""Host speed, measured with a fixed reference kernel between jobs.

On a shared host the CPU speed seen by one process drifts by tens of
percent, over seconds and over minutes, and the drift moves every
interpreted workload alike.  Measured on a 2-core host: one job repeated for
80 s varied by 0.23 (quartile spread over median) in seconds, but by 0.075
once each run was divided by the reference kernel's time around it.

So the benchmark reports times in *reference seconds*: measured seconds
times ``NOMINAL_S / reference time``, where the reference time is taken
around the measured work.  A reference second is a wall second on a host
where the kernel takes ``NOMINAL_S``.  The kernel is exact Gaussian
elimination over ``Fraction`` on a fixed matrix, in this file and not in the
program, so no change to the program can speed it up; the collector is off
while it runs, so the program's heap does not slow it either.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.006  # the kernel's time on a 2-core x86_64 host, CPython 3.11
MARK_EVERY_S = 0.25  # job seconds between reference measurements

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(14)]
           for _ in range(12)]


def _kernel():
    m = [list(row) for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break


def reference_seconds():
    """The kernel's time now: the faster of two runs, collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            _kernel()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Reference measurements taken between jobs, to scale job times.

    ``mark()`` records the reference time after the jobs run so far; a job is
    scaled by the mean of the marks just before and just after it.
    """

    def __init__(self):
        self.jobs = 0
        self.marks = []  # (jobs run before the mark, reference seconds)
        self._since = 0.0
        self.mark()

    def mark(self):
        self.marks.append((self.jobs, reference_seconds()))
        self._since = 0.0

    def after_job(self, seconds):
        self.jobs += 1
        self._since += seconds
        if self._since >= MARK_EVERY_S:
            self.mark()

    def scale(self, samples):
        """``samples[i]`` (the i-th job's seconds) in reference seconds."""
        if self.marks[-1][0] < self.jobs:
            self.mark()
        out, m = [], 0
        for i, seconds in enumerate(samples):
            while self.marks[m + 1][0] <= i:
                m += 1
            ref = (self.marks[m][1] + self.marks[m + 1][1]) / 2
            out.append(seconds * NOMINAL_S / ref)
        return out
