"""Clocks for the benchmark's timings.

On a small shared machine two things swamp most changes to the program.
Other tenants' processes preempt this one for a scheduler slice (about
20 ms) at a time, and the interpreter runs faster or slower by up to about
30% in phases that last from seconds to minutes.  ``ReferenceClock`` deals
with both.  It reads the process's CPU time, which leaves out the time the
process waited while another ran.  And every ``interval`` seconds, between
ops, it times a fixed pure-Python loop that touches no edgevault code.
``run.py`` divides each round's and each set-up's CPU time by a factor
derived from the median slowness measured during it, which gives seconds
at the reference interpreter speed, the speed at which the loop takes
``REFERENCE_LOOP_S``.  The loop's own time is never counted.

``WallClock`` has the same interface, never measures, and reads plain wall
time; the traced run uses it.
"""

from __future__ import annotations

import statistics
import time

#: seconds ``_reference_loop`` takes at the reference interpreter speed
REFERENCE_LOOP_S = 0.0025

#: How strongly the workloads' CPU time follows the loop's.  Fitting the
#: log of a run's time against the log of its median slowness, over sets of
#: ten runs, gave slopes of 0.47 to 0.78 for the workloads: they mix
#: interpreter work with C code (hashing, AEAD, numpy) that speed phases
#: slow down less.
SENSITIVITY = 0.5


def _reference_loop() -> int:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


def slowness() -> float:
    """How much slower than the reference speed the interpreter runs at
    this moment: the best of three timings of the reference loop over its
    time at the reference speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_LOOP_S


class WallClock:
    """Plain wall time."""

    def now(self) -> float:
        return time.perf_counter()

    def now_ns(self) -> int:
        return time.perf_counter_ns()

    def tick(self):
        pass


class ReferenceClock:
    """Process CPU time less the time spent measuring, plus slowness
    samples.  The program is single-threaded and does no blocking I/O in
    the timed ops except the CLI's state-file writes, so CPU time is the
    time an op would take on a machine of its own.

    Call ``tick()`` between ops, never inside one: once ``interval`` wall
    seconds have passed since the last sample, it takes another.
    ``sample()`` takes one at once and returns its index.
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: list[float] = []
        self._paused_ns = 0
        self._last = 0.0
        self.sample()

    def now(self) -> float:
        return self.now_ns() / 1e9

    def now_ns(self) -> int:
        return time.process_time_ns() - self._paused_ns

    def sample(self) -> int:
        start = time.process_time_ns()
        self.samples.append(slowness())
        self._paused_ns += time.process_time_ns() - start
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def tick(self):
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def factor_since(self, index: int) -> float:
        """What to divide CPU time by to get reference time: the median of
        the samples from ``index`` on, raised to ``SENSITIVITY``."""
        return statistics.median(self.samples[index:]) ** SENSITIVITY
