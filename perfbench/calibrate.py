"""Host-speed calibration: a fixed pure-Python kernel timed between operations.

The benchmark runs on shared hosts whose speed drifts by 20-40 % over
minutes, also for a loop that touches none of the program; across the span
of one operation it changes far less.  So :class:`Calibrator` times *slices*
of a fixed kernel between the timed operations of a run, and every time
metric is scaled to a reference speed: an operation's seconds are multiplied
by ``REFERENCE_SLICE_S`` over the mean of the slice just before it, the slice
just after it and any slices run between its parts.  A metric then reads as
the time the operation would take on a host where one slice takes
``REFERENCE_SLICE_S``.  The kernel is benchmark code and never calls the
program, so a slower program still reads slower by the same share.

The kernel mimics the program's inner loops (an event heap of tuples, a
small dict, integer and float arithmetic), which track the simulator's speed
across host drift more closely than a bare arithmetic loop.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

#: Events pushed through the heap by one slice (about 20 ms on a 2-vCPU host).
SLICE_EVENTS = 25_000
#: The slice time that every scaled metric is expressed at.
REFERENCE_SLICE_S = 0.020
#: Calibration time kept at this share of the measured time.
SHARE = 0.10
#: Slices run at the start of a run, before any operation.
FIRST_SLICES = 5


def kernel_slice() -> int:
    """One slice of the fixed kernel; returns a checksum so it is not idle."""
    heap: List = []
    table: Dict[int, float] = {}
    state = 12345
    total = 0
    for index in range(SLICE_EVENTS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (state / 2147483648.0, index))
        if len(heap) > 64:
            due, item = heapq.heappop(heap)
            table[item & 511] = due
            total += item
    return total + len(table)


def timed_slice(_item: int = 0) -> float:
    """Run one slice and return its seconds; a pool worker can run it."""
    start = time.perf_counter()
    kernel_slice()
    return time.perf_counter() - start


class Calibrator:
    """Times kernel slices and scales operation times by the nearest ones.

    With a ``pool``, each slice runs once in each of its ``jobs`` workers at
    the same time and counts as their mean: the speed of the processes that
    do a pooled workload's work, with every core busy as it keeps them.
    """

    def __init__(self, pool: Optional[Any] = None, jobs: int = 1) -> None:
        self.pool = pool
        self.jobs = jobs
        #: When each slice started and ended in this process, and its seconds.
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.slices_s: List[float] = []
        self.spent_s = 0.0

    def run(self, count: int) -> None:
        """Time ``count`` slices, back to back."""
        clock = time.perf_counter
        for _ in range(count):
            start = clock()
            if self.pool is None:
                kernel_slice()
                end = clock()
                took = end - start
            else:
                took = statistics.mean(self.pool.map(timed_slice, range(self.jobs)))
                end = clock()
            self.starts.append(start)
            self.ends.append(end)
            self.slices_s.append(took)
            self.spent_s += end - start

    def top_up(self, measured_s: float) -> None:
        """Time at least one slice, and enough that slices add up to
        :data:`SHARE` of ``measured_s``, the time measured so far."""
        self.run(FIRST_SLICES if not self.starts else 1)
        while self.spent_s < SHARE * measured_s:
            self.run(1)

    def run_before(self, deadline: float) -> None:
        """Time one slice if it leaves at least one slice's time before
        ``deadline`` (a ``perf_counter`` time), so that it delays nothing due."""
        if self.starts and time.perf_counter() + 2 * (self.ends[-1] - self.starts[-1]) < deadline:
            self.run(1)

    def median_s(self) -> float:
        return statistics.median(self.slices_s)

    def scale_at(self, start: float, end: float) -> float:
        """The factor that turns seconds measured from ``start`` to ``end``
        into reference seconds: from the last slice that ended by ``start``,
        the first that started at or after ``end``, and those between."""
        before = max(bisect.bisect_right(self.ends, start) - 1, 0)
        after = bisect.bisect_left(self.starts, end)
        nearest = self.slices_s[before:after + 1]
        return REFERENCE_SLICE_S / (sum(nearest) / len(nearest))

    def scaled(
        self, durations: Sequence[float], starts: Sequence[float], ends: Sequence[float]
    ) -> List[float]:
        """Each duration, measured from the matching ``starts`` to ``ends``
        time, in reference seconds."""
        return [
            duration * self.scale_at(start, end)
            for duration, start, end in zip(durations, starts, ends)
        ]
