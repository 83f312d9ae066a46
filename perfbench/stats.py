"""Pure helpers of the benchmark runner: percentiles, tails, failure
accounting and span self time.  No imports from the program under test,
so the helpers are testable without it."""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is a tail only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def rank(n: int, p: float) -> int:
    """Nearest-rank index (1-based) of the ``p``-th percentile of ``n``
    samples: the smallest rank with at least ``p`` percent at or below."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


class Tail(NamedTuple):
    """A reported tail: ``label`` is ``p95``-style or ``max``."""

    label: str
    value: float
    samples: int    #: all samples the tail was taken over
    beyond: int     #: samples strictly above the reported rank


def tail(values: Sequence[float]) -> Tail:
    """The highest of :data:`TAIL_PERCENTILES` that has at least
    :data:`MIN_BEYOND` samples beyond it, or the maximum when no
    percentile qualifies."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("tail of no values")
    best = None
    for p in TAIL_PERCENTILES:
        r = rank(n, p)
        if n - r >= MIN_BEYOND:
            best = (p, r)
    if best is None:
        return Tail("max", ordered[-1], n, 0)
    p, r = best
    label = f"p{p:g}"
    return Tail(label, ordered[r - 1], n, n - r)


def failed_share(outcomes: Sequence) -> Tuple[float, List[str]]:
    """Share of targets that were wrong, incomplete or errored, out of
    all attempted, plus the failing targets as ``name: reason``.
    ``outcomes`` are verdicts: objects with ``name``, ``ok`` (False
    when the target failed) and ``reason``."""
    if not outcomes:
        raise ValueError("no targets attempted")
    failing = [f"{o.name}: {o.reason}" for o in outcomes if not o.ok]
    return len(failing) / len(outcomes), failing


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover, overlapping children counted once.  Spans are
    given as columns; ``parents[i]`` is the index of span ``i``'s
    enclosing span, or -1 for a root."""
    n = len(starts)
    order: Iterable[int] = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(range(n), key=starts.__getitem__)
    covered = [0.0] * n
    cursor = list(starts)   #: per parent: end of the covered prefix
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        start, end = max(starts[i], cursor[p]), min(ends[i], ends[p])
        if end > start:
            covered[p] += end - start
            cursor[p] = end
    return [ends[i] - starts[i] - covered[i] for i in range(n)]
