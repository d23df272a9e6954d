"""Reference clock: timings scaled to a fixed speed of the machine.

On a share of a shared host the speed of this benchmark's one core
drifts by up to 1.7x over seconds to minutes, and process CPU time
tracks wall time, so neither clock alone repeats from run to run. The
reference clock times a fixed pure-Python kernel every TICK_S seconds,
from a SIGALRM handler in the benchmark's own process (no thread, no
other process), and converts an interval of host time into reference
seconds: each stretch between two ticks counts as its length times
KERNEL_NOMINAL_S over the kernel's mean time at the two ticks. The
kernel's own time is left out. A reference second is thus a host second
at the speed where the kernel takes KERNEL_NOMINAL_S; a change that
makes the program faster makes its reference time shorter in the same
proportion.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

TICK_S = 0.25
KERNEL_NOMINAL_S = 0.004


def _kernel() -> int:
    """Fixed interpreter work (dict updates, integer arithmetic)."""
    counts = {}
    total = 0
    for i in range(12000):
        counts[i % 997] = counts.get(i % 997, 0) + i
        total += i * i
    return total


class ReferenceClock:
    def __init__(self):
        self.ticks: list = []  # (start, end) of each timed kernel, in order
        self._busy = False

    def tick(self, *_) -> None:
        if self._busy:  # an alarm during an explicit tick
            return
        self._busy = True
        start = perf_counter()
        _kernel()
        self.ticks.append((start, perf_counter()))
        self._busy = False

    def now(self) -> float:
        """Tick, then return the time an interval measured from here starts."""
        self.tick()
        return perf_counter()

    def since(self, start: float) -> float:
        """Reference seconds from ``start`` (a ``now()``) until here."""
        end = perf_counter()
        self.tick()
        return self.seconds(start, end)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in [start, end]; needs a tick on either side."""
        total = 0.0
        for (s0, e0), (s1, e1) in zip(self.ticks, self.ticks[1:]):
            if s1 <= start:
                continue
            if e0 >= end:
                break
            covered = min(end, s1) - max(start, e0)
            if covered > 0:
                kernel = ((e0 - s0) + (e1 - s1)) / 2
                total += covered * KERNEL_NOMINAL_S / kernel
        return total

    @contextlib.contextmanager
    def ticking(self, on: bool = True):
        """Tick every TICK_S seconds in the block (when on), and at both ends."""
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick) if on else None
        if on:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            if on:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            self.tick()
