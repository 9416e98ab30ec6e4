"""Host-speed probe: a fixed piece of Python timed between operations.

The machine the benchmark was built on changes speed in phases that
last seconds to minutes (other tenants share its cores), and every
workload slows down with it.  A repetition therefore times a fixed
yardstick (benchmark-owned code that no change to the program can speed
up) every :data:`Yardstick.EVERY` seconds between operations, and
:func:`scaled` rescales each timed interval by ``nominal / median`` of
the probes nearest to it in time: timings are reported as they would
read on a host that runs the yardstick in :data:`NOMINAL_S`.
"""

from __future__ import annotations

import bisect
import copy
import statistics
from time import perf_counter

#: Yardstick time the reported timings are scaled to.
NOMINAL_S = 0.0005

#: An interval on the host clock: (start, seconds).
Interval = tuple[float, float]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def plus(self, other: "_Point") -> "_Point":
        return _Point(self.x + other.x, self.y + other.y)


def yardstick() -> int:
    """Object allocation, method calls, dict/str work, a deep copy, a sort."""
    acc = _Point(0, 0)
    table: dict[str, list] = {}
    for i in range(240):
        acc = acc.plus(_Point(i, 1))
        table[f"k{i % 40}"] = [i, (i, acc.x)]
    copy.deepcopy(table)
    return len(sorted(table)) + acc.y


class Yardstick:
    """Probes host speed between a repetition's operations."""

    #: Seconds of work between two probes.
    EVERY = 0.025

    def __init__(self) -> None:
        self.probes: list[Interval] = []
        #: Host seconds spent probing, to keep out of timed phases.
        self.spent = 0.0
        self._last = perf_counter()

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            began = perf_counter()
            yardstick()
            self._last = perf_counter()
            self.probes.append((began, self._last - began))
            self.spent += self._last - began

    def pace(self) -> None:
        """Probe if :data:`EVERY` seconds passed since the last probe."""
        if perf_counter() - self._last >= self.EVERY:
            self.probe()


def scaled(
    intervals: list[Interval], probes: list[Interval], nominal: float, nearest: int = 8
) -> list[float]:
    """Each interval's seconds times ``nominal`` over the median of the
    ``nearest`` probes that started closest to it."""
    probes = sorted(probes)
    starts = [start for start, _seconds in probes]
    out = []
    for start, seconds in intervals:
        at = bisect.bisect_left(starts, start)
        low = max(0, min(at - nearest // 2, len(probes) - nearest))
        window = [took for _start, took in probes[low:low + nearest]]
        out.append(seconds * nominal / statistics.median(window))
    return out
