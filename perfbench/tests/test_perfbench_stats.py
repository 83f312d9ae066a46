"""Tests for the benchmark runner's pure helpers.

    python3 -m pytest perfbench/tests -q
"""

import gc
import os
import sys
from typing import NamedTuple

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import hostspeed  # noqa: E402
from run import median_timings  # noqa: E402
from stats import (failed_share, median, rank,  # noqa: E402
                   self_times, tail)
from workloads import PassResult, Verdict  # noqa: E402


class Outcome(NamedTuple):
    """Stands in for a workload's verdict: ``reason`` is empty when ok."""

    name: str
    ok: bool
    reason: str = ""


# -- tail percentile selection --------------------------------------------

def test_tail_is_max_when_no_percentile_has_ten_beyond():
    values = [0.5, 0.1, 4.3, 3.4, 0.01, 0.2, 0.002, 0.04]
    t = tail(values)
    assert (t.label, t.value, t.samples, t.beyond) == ("max", 4.3, 8, 0)


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1, 201))           # 200 samples
    t = tail(values)
    assert t.label == "p95"                # p99 leaves only 2 beyond
    assert t.value == 190 and t.beyond == 10


def test_tail_needs_ten_strictly_beyond():
    # 19 samples: p50 is rank 10, leaving 9 beyond -> no percentile.
    assert tail(list(range(19))).label == "max"
    # 20 samples: p50 is rank 10, leaving exactly 10 beyond.
    t = tail(list(range(20)))
    assert (t.label, t.beyond) == ("p50", 10)


def test_tail_of_47_is_p75():
    t = tail(list(range(47)))
    assert t.label == "p75" and t.beyond == 47 - rank(47, 75) == 11


def test_tail_ignores_input_order():
    values = [5, 3, 9, 1] * 10
    assert tail(values) == tail(sorted(values))


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail([])


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# -- span self time -------------------------------------------------------

def _self(spans):
    starts, ends, parents = zip(*spans)
    return [round(t, 9) for t in self_times(starts, ends, parents)]


def test_self_time_nested_chain():
    # root [0,10] > child [2,8] > grandchild [3,5]
    assert _self([(0, 10, -1), (2, 8, 0), (3, 5, 1)]) == [4, 4, 2]


def test_self_time_siblings():
    # root [0,10] with children [1,3] and [4,9]; the second has a child.
    spans = [(0, 10, -1), (1, 3, 0), (4, 9, 0), (5, 6, 2)]
    assert _self(spans) == [3, 2, 4, 1]


def test_self_time_overlapping_children_counted_once():
    spans = [(0, 10, -1), (1, 6, 0), (4, 8, 0)]
    assert _self(spans) == [3, 5, 4]


def test_self_time_child_clipped_to_parent():
    spans = [(0, 4, -1), (3, 7, 0)]
    assert _self(spans) == [3, 4]


def test_self_time_unsorted_input():
    spans = [(0, 10, -1), (4, 9, 0), (1, 3, 0)]
    assert _self(spans) == [3, 5, 2]


def test_self_time_separate_roots():
    assert _self([(0, 2, -1), (2, 5, -1), (3, 4, 1)]) == [2, 2, 1]


# -- failed_share accounting ----------------------------------------------

def test_failed_share_counts_every_failure_against_attempted():
    outcomes = [Outcome("a", True), Outcome("b", False, "wrong"),
                Outcome("c", False, "truncated"), Outcome("d", True)]
    share, failing = failed_share(outcomes)
    assert share == 0.5
    assert failing == ["b: wrong", "c: truncated"]


def test_failed_share_zero_when_all_correct():
    assert failed_share([Outcome("a", True)] * 3) == (0.0, [])


def test_failed_share_counts_repeated_targets_per_attempt():
    # The same target failing in two passes is two failed attempts.
    outcomes = [Outcome("x", False, "errored")] * 2 + [Outcome("y", True)]
    share, failing = failed_share(outcomes)
    assert share == pytest.approx(2 / 3)
    assert failing == ["x: errored", "x: errored"]


def test_failed_share_rejects_nothing_attempted():
    with pytest.raises(ValueError):
        failed_share([])


# -- host-speed scaling ---------------------------------------------------

def test_host_speed_samples_at_most_once_per_interval(monkeypatch):
    monkeypatch.setattr(hostspeed, "reference", lambda: 0.012)
    speed = hostspeed.HostSpeed()
    assert speed.between() > 0          # the first call takes a sample
    assert speed.between() == 0.0       # the next is not due yet
    assert speed.samples == [0.012]
    assert speed.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.012)


def test_reference_leaves_collector_state_alone():
    assert gc.isenabled()
    assert hostspeed.reference() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.reference()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_median_timings_are_run_medians_times_factor():
    def run_pass(wall, a, b):
        return PassResult(wall, [Verdict("a", a, True),
                                 Verdict("b", b, True)])
    passes = [run_pass(1.0, 0.2, 0.6), run_pass(3.0, 0.4, 2.0),
              run_pass(2.0, 0.3, 1.0)]
    metrics, tails = median_timings(passes, [0.5, 0.1, 0.3], 2.0)
    assert metrics == pytest.approx({
        "setup_s": 0.6,                 # median probe 0.3
        "wall_s": 4.0,                  # median pass 2.0
        "verdict_p50_s": 1.3,           # median of a's 0.3 and b's 1.0
        "verdict_tail_s": 2.0,          # median of pass maxima 0.6, 2, 1
    })
    assert [t.label for t in tails] == ["max"] * 3
