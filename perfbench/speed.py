"""Host-speed calibration: a fixed pure-Python loop timed between iterations.

The machine this benchmark was built on drifts in speed with other
tenants' load, by up to about 1.5x for minutes at a time, and CPU time
does not remove the drift (see NOTES.md). A run therefore times this
loop a few times before and after every iteration and scales its host
times by ``NOMINAL_S / median(loop times)``: host seconds at the loop's
nominal speed. The loop uses only the standard library — heap operations, small
slotted objects, method calls, dict updates, string sorting, the same
mix of interpreter work as the simulator — so no change to the program
under test changes it.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: About the loop's median time on the reference host (2-vCPU VM,
#: CPython 3.11); scaled host times read as seconds on that host at
#: that speed.
NOMINAL_S = 0.075
#: Loop timings taken at each iteration boundary: the loop is short so
#: that several samples catch more of the host's speed phases.
SAMPLES = 4


class _Event:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def fire(self, totals: dict) -> None:
        totals[self.key] = totals.get(self.key, 0) + self.value


def calibration_loop() -> float:
    """Seconds the fixed loop takes now."""
    n = 20_000
    start = time.perf_counter()
    heap: list = []
    totals: dict = {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i, _Event(i % 97, i)))
    while heap:
        heapq.heappop(heap)[2].fire(totals)
    sorted((str(i) for i in range(n)), key=lambda s: s[::-1])
    return time.perf_counter() - start


def sample_speed() -> List[float]:
    """``SAMPLES`` timings of the loop, back to back."""
    return [calibration_loop() for _ in range(SAMPLES)]
