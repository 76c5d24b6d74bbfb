"""Machine-speed probe: reports pass times at a fixed reference speed.

The benchmark shares a host whose speed drifts by up to ~40% over tens of
seconds (a slow phase slows every core of the machine, and CPU time as
much as wall time).  Two runs of the same code minutes apart then differ
by that much, however long each run is.  So every pass samples the
machine's speed as it goes: between operations, at most every
``interval`` seconds, it times a fixed pure-Python spin.  The mean spin
time over the pass, divided by :data:`REFERENCE_SPIN_S`, is the pass's
slowdown, and the benchmark divides the pass's total time by it.  A
single short operation instead is divided by the slowdown of the two
samples around it: the host switches between a fast and a ~1.5x slower
phase, so a percentile of many short operations lands in one phase or
the other, not at the pass's average.  Time spent spinning is never part
of an operation's time.

The spin is independent of ``repro``: a change to the program cannot
move it, so a program that gets faster or slower reads faster or slower.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

#: the spin's time on an unloaded host of the reference speed; reported
#: times are what the pass would have taken at that speed
REFERENCE_SPIN_S = 0.0035
SPIN_ITERATIONS = 40_000
#: samples taken on each side of a set-up or a pass
SETUP_SAMPLES = 3


def spin(n: int = SPIN_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic and small dict stores."""
    total, table = 0, {}
    for i in range(n):
        total += i * i % 7
        table[i & 255] = total
    return total


class SpeedProbe:
    """Speed samples of one process, taken between its operations."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            spin()
            end = time.perf_counter()
            self.samples.append(end - start)
            self.spent += end - start
            self._last = end

    def maybe(self) -> None:
        """Sample if the last sample is ``interval`` seconds old."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def mark(self) -> int:
        """A mark for an operation that starts now."""
        return len(self.samples)

    def local_slowdown(self, mark: int) -> float:
        """The slowdown of the last sample before and the first sample
        after the operation that started at *mark*."""
        return slowdown(self.samples[max(0, mark - 1):mark + 1])

    def timed(self, fn: Callable) -> Tuple[object, float]:
        """``fn()`` and its time in seconds, less any sampling inside."""
        spent = self.spent
        start = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - start - (self.spent - spent)


def slowdown(samples: List[float]) -> float:
    """How much slower than the reference speed the samples ran."""
    return statistics.fmean(samples) / REFERENCE_SPIN_S
