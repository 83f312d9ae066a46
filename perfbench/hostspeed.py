"""The host's speed, measured beside an in-process workload.

On a shared host the CPU speed one process gets drifts with the other
tenants' load: on the 2-core box this benchmark was built on, the same
``table2-paper`` pass took from 2.4 s to 4.1 s within three minutes,
with CPU time within 3% of wall time throughout.  No estimator inside
one run removes drift that lasts longer than the run, so the runner
measures the drift instead: between the workload's targets it times a
fixed pure-Python reference (:func:`reference`), at most once per
:data:`EVERY` seconds, and scales the run's median timings by
``REFERENCE_S / median reference time``.  The timings are then seconds
at the speed the host gives the reference its :data:`REFERENCE_S`.

The reference touches no code of the program under test, runs with the
garbage collector off (so the program's collector settings cannot move
it), and mixes the two kinds of work the workloads do: allocating and
hashing small tuples and objects, and dependent loads spread over a
2 MB table, which miss the CPU's private caches as lookups in the
explorers' state sets do.
"""

from __future__ import annotations

import gc
from array import array
from time import perf_counter
from typing import Dict, List

from stats import median

#: Least seconds from the end of one reference sample to the next.
EVERY = 0.2
#: The reference's time at the speed scaled timings are given in.  On
#: the 2-core x86 box this benchmark was built on, a 40-s run's fastest
#: sample took 4.5-5 ms in most runs and its median 7.1-8.7 ms.
REFERENCE_S = 0.006

_TABLE_SIZE = 1 << 18       #: 2 MB of int64 links
_STEPS = 4000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def pair(self):
        return (self.key, self.value & 7)


def _links() -> array:
    """Slot ``i`` holds the next slot of one cycle through the whole
    table (a full-period linear congruential step), which jumps across
    it: following the links is a chain of dependent loads."""
    return array("q", ((i * 40505 + 1) % _TABLE_SIZE
                       for i in range(_TABLE_SIZE)))


_LINKS = _links()


def reference() -> float:
    """Seconds one fixed unit of pure-Python work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        links = _LINKS
        t0 = perf_counter()
        counts: Dict[tuple, int] = {}
        recent: List[frozenset] = []
        at = 0
        for i in range(_STEPS):
            pair = _Item(i & 255, i).pair()
            counts[pair] = counts.get(pair, 0) + 1
            recent.append(frozenset((pair, i & 3)))
            if len(recent) > 64:
                del recent[:32]
            for _ in range(3):
                at = links[at]
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples taken through one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = 0.0

    def between(self) -> float:
        """Called between targets: takes a sample when one is due and
        returns the seconds it spent, which the pass leaves out."""
        start = perf_counter()
        if start < self._next:
            return 0.0
        self.samples.append(reference())
        end = perf_counter()
        self._next = end + EVERY
        return end - start

    def factor(self) -> float:
        return REFERENCE_S / median(self.samples)

    def record(self) -> Dict[str, float]:
        return {"samples": len(self.samples),
                "reference_median_s": median(self.samples),
                "reference_min_s": min(self.samples),
                "factor": self.factor()}
