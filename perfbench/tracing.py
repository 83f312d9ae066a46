"""Layer tracing from outside the program.

The traced pass wraps the public entry points of each layer where its
caller looks the name up (a class attribute for methods, a module
attribute for functions), records one span per call (name, start, end,
parent) into flat in-memory columns, and restores every original when
the pass ends.  Nothing inside ``src/`` is instrumented.

Per-layer metrics are the spans' call counts and self times (a span's
duration minus what its child spans cover), plus the deterministic
counters the public API already returns.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import self_times


class SpanRecorder:
    """Spans kept as flat columns in memory, written once at the end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = []
        #: Counters that are not spans (hits, steps) by name.
        self.counts: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, parents = (self.name_ids, self.starts,
                                           self.ends, self.parents)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        own = self_times(self.starts, self.ends, self.parents)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        names = self.names
        for i, nid in enumerate(self.name_ids):
            row = out[names[nid]]
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += own[i]
        return out

    def write(self, path: str) -> None:
        """Spans as ``<path>.json`` (names, counts) plus four binary
        columns in ``<path>.bin``: name ids, parents (int32), starts,
        ends (float64)."""
        with open(path + ".bin", "wb") as fh:
            for column in (self.name_ids, self.parents, self.starts,
                           self.ends):
                column.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.starts),
                       "counts": self.counts}, fh)


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every layer's public entry points; returns the undo log."""
    import repro.api.analyses as analyses
    import repro.sps as sps
    from repro.api.project import Project
    from repro.api.report import Report
    from repro.core.machine import Machine
    from repro.engine import (BreadthFirstFrontier, CoverageFrontier,
                              DepthFirstFrontier, ExecutionEngine,
                              Frontier, MCTSFrontier, RandomFrontier,
                              SeenStates)
    from repro.pitchfork.explorer import Explorer
    from repro.serve.client import ServeClient

    patches = Patches()

    def method(cls, attr, name, on_result=None):
        patches.replace(cls, attr, recorder.wrap(
            name, cls.__dict__[attr], on_result))

    def engine_counters(result):
        stats = result.engine
        if stats is not None:
            recorder.count("engine.steps", stats.steps)
            recorder.count("engine.cache_hits",
                           stats.cache_hits + stats.stuck_hits)

    def subsume_hit(hit):
        if hit:
            recorder.count("engine.subsume.hits")

    def sps_steps(result):
        recorder.count("sps.steps", result.states_stepped)

    # core: the machine's small-step relation.
    method(Machine, "step", "core.step")
    # engine: cached stepping, trial steps, frontier, subsumption table.
    method(ExecutionEngine, "step", "engine.step")
    method(ExecutionEngine, "try_step", "engine.trial")
    for cls in (Frontier, DepthFirstFrontier, BreadthFirstFrontier,
                RandomFrontier, CoverageFrontier, MCTSFrontier):
        for attr in ("push", "pop", "extend"):
            if attr in cls.__dict__:
                method(cls, attr, f"engine.frontier.{attr}")
    method(SeenStates, "subsumes", "engine.subsume.probe", subsume_hit)
    method(SeenStates, "record", "engine.subsume.record")
    # pitchfork: one exploration (its self time is the scheduler).
    method(Explorer, "explore", "pitchfork.explore", engine_counters)
    # sps: looked up on the package by the sps analysis.
    patches.replace(sps, "explore_sps", recorder.wrap(
        "sps.explore", sps.__dict__["explore_sps"], sps_steps))
    # api: project construction, Analysis.run, and building a Report:
    # from an analysis result in-process, from the daemon's reply on
    # the serve client.
    method(Project, "__init__", "api.project")
    method(analyses.Analysis, "run", "api.analysis")
    patches.replace(analyses, "from_analysis_report", recorder.wrap(
        "api.report", analyses.__dict__["from_analysis_report"]))
    patches.replace(Report, "from_dict", classmethod(recorder.wrap(
        "api.report", Report.__dict__["from_dict"].__func__)))
    # serve: the client's RPC round trips and its polling wait, whose
    # self time (minus status, result and report spans) is its sleep.
    method(ServeClient, "call", "serve.rpc")
    method(ServeClient, "status", "serve.status")
    method(ServeClient, "result", "serve.result")
    method(ServeClient, "wait", "serve.wait")
    return patches


def layer_metrics(recorder: SpanRecorder, wall: float,
                  counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``wall`` is the traced pass's wall time; ``*.share`` metrics are
    self (or total) seconds as a share of it.  ``counters`` are the
    pass's deterministic counters taken from reports and daemon stats.
    """
    rows = recorder.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return rows.get(name, zero)

    def share(seconds):
        return seconds / wall

    frontier = [row(f"engine.frontier.{a}") for a in ("push", "pop",
                                                      "extend")]
    probes = row("engine.subsume.probe")["calls"]
    hits = recorder.counts.get("engine.subsume.hits", 0)
    steps = recorder.counts.get("engine.steps", 0)
    cache_hits = recorder.counts.get("engine.cache_hits", 0)
    submits = counters.get("serve.submits", 0)
    return {
        "pitchfork.self_share": share(row("pitchfork.explore")["self_s"]),
        "pitchfork.paths": counters.get("paths", 0),
        "engine.step.calls": row("engine.step")["calls"],
        "engine.trial.calls": row("engine.trial")["calls"],
        "engine.step.self_share": share(row("engine.step")["self_s"]),
        "engine.cache.hit_ratio": (cache_hits / (steps + cache_hits)
                                   if steps + cache_hits else 0.0),
        "core.step.calls": row("core.step")["calls"],
        "core.step.share": share(row("core.step")["total_s"]),
        "engine.frontier.pops": row("engine.frontier.pop")["calls"],
        "engine.frontier.share": share(sum(r["self_s"] for r in frontier)),
        "engine.por.skipped": counters.get("por_skipped", 0),
        "engine.subsume.probes": probes,
        "engine.subsume.hits": hits,
        "engine.subsume.hit_ratio": hits / probes if probes else 0.0,
        "engine.subsume.share": share(
            row("engine.subsume.probe")["total_s"]
            + row("engine.subsume.record")["total_s"]),
        "sps.calls": row("sps.explore")["calls"],
        "sps.share": share(row("sps.explore")["total_s"]),
        "sps.steps": recorder.counts.get("sps.steps", 0),
        "api.project.share": share(row("api.project")["total_s"]),
        "api.analysis.self_share": share(row("api.analysis")["self_s"]),
        "api.report.share": share(row("api.report")["total_s"]),
        "serve.rpc.calls": row("serve.rpc")["calls"],
        "serve.rpc.share": share(row("serve.rpc")["total_s"]),
        "serve.polls_per_submit": (row("serve.status")["calls"] / submits
                                   if submits else 0.0),
        "serve.wait.sleep_share": share(row("serve.wait")["self_s"]),
        "serve.computed": counters.get("serve.computed", 0),
        "serve.memory_hits": counters.get("serve.memory_hits", 0),
        "serve.store_hits": counters.get("serve.store_hits", 0),
        "serve.store.writes": counters.get("serve.store_writes", 0),
    }
