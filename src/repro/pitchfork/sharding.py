"""In-program multiprocess exploration: shard DT(n) into subtree jobs.

The tool-schedule tree is embarrassingly partitionable: after a fork,
sibling subtrees share no state (each arm carries its whole history in
persistent logs), so any frontier cut is a valid work partition.
:class:`ShardedExplorer` exploits that:

1. **split** — run the scheduler in-process through the first few fork
   levels, keeping the pending subtree roots *in DFS visitation order*.
   Each root is described self-containedly by its root schedule prefix
   (the exact action sequence from the initial configuration, including
   the explorer's delay pseudo-actions).  Paths that terminate before
   the cut are completed in the parent.  Splitting deepens level by
   level until there are at least ``shards × OVERPARTITION`` jobs (or
   the tree runs out of forks) — overpartitioning is what load-balances
   lopsided subtrees across the pool;
2. **execute** — ship ``(program, initial config, options, prefix)``
   jobs to a ``ProcessPoolExecutor``.  A worker replays the prefix
   through a fresh :class:`~repro.pitchfork.explorer.Explorer` (cheap:
   at most a few × bound steps, and sound by determinism, Theorem B.1 —
   the replayed root is *the* subtree root, violations recorded inside
   the prefix included) and explores the subtree with the configured
   search strategy;
3. **merge** — deterministically, in slot order: parent-completed
   leaves and shard results concatenate into one
   :class:`~repro.pitchfork.explorer.ExplorationResult` with stable
   path ordering, summed :class:`~repro.engine.EngineStats`, per-shard
   :class:`~repro.pitchfork.explorer.ShardStats`, and OR-ed truncation
   flags.  Under ``stop_at_first`` the merge stops at the first slot
   reporting a violation and cancels the outstanding shards.

Soundness is shard-invariant: Theorem B.20's guarantee quantifies over
the schedule *set* DT(n), and the partition neither adds nor removes
schedules — every root-to-leaf action sequence appears in exactly one
shard (prefix ∘ subtree path).  With the default DFS strategy the
merged path list is the seed explorer's enumeration order exactly;
counters differ only in that each shard re-applies its prefix once
(reported via ``ShardStats.prefix_len``).

Workers rebuild the machine from ``(program, rsb_policy)``, so sharding
requires the default concrete evaluator — callers with a custom
evaluator fall back to the single-process explorer
(:func:`repro.pitchfork.detector.analyze` gates this).

Anytime budgets
---------------

``options.budget_seconds`` composes with sharding through per-worker
deadlines: the parent arms one deadline at ``explore()`` entry (the
split counts against the budget), every job submitted to the pool
carries the budget *remaining at submission* as its own
``budget_seconds``, and the deterministic merge (a) skips — and counts
as unexplored frontier — any job it can still cancel once the deadline
has passed, and (b) sums each shard's honest
:class:`~repro.pitchfork.explorer.AnytimeStats` into one merged record.
A job already running at the deadline is awaited, not killed: it
self-limits by its own remaining budget, so the worst-case overshoot is
bounded by one worker budget (grace ≤ ~2× the configured budget, in
exchange for never discarding a shard whose results already exist).
Deadline expiry marks the merged result truncated — budgeted coverage
is never reported as complete.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.config import Config
from ..core.machine import Machine
from ..engine import MachineState, PruningStats, SubsumptionStats
from ..obs import SearchTelemetry, Tracer, tracing_context
from .explorer import (AnytimeStats, ExplorationOptions, ExplorationResult,
                       Explorer, PathResult, ShardStats, _Action)

__all__ = ["ShardedExplorer", "OVERPARTITION", "MAX_SPLIT_LEVELS",
           "shard_context", "ambient_pool", "ambient_progress"]

#: Jobs per worker the splitter aims for.  DT(n) subtrees are lopsided
#: (a mispredicted-branch arm is pruned at rollback, the architectural
#: arm carries the whole program suffix), so handing each worker one
#: subtree would serialise on the biggest; several jobs per worker let
#: the pool rebalance (on the donna case study at bound 28 this cuts
#: the largest job from 24% of the tree to 12%).
OVERPARTITION = 8

#: Fork levels the splitter will descend looking for enough jobs.
MAX_SPLIT_LEVELS = 8

# NOTE on pool lifetime: a module-level executor cached across explore()
# calls was tried and reverted.  A live ProcessPoolExecutor poisons
# every process forked afterwards — concurrent.futures registers an
# atexit hook that joins the executor's manager thread, and a forked
# child (e.g. an AnalysisManager worker under the default Linux start
# method) inherits that registration for a thread which does not run in
# the child, so the child hangs at exit and the manager's own pool
# shutdown deadlocks behind it.  Per-call pools shut down before any
# later fork can observe them; callers that want amortised workers
# (benchmarks, sweeps driving many explorations from one place) pass an
# explicit ``pool=`` whose lifetime they control.
#
# The serve daemon (repro.serve) is exactly such a caller, but its pool
# has to reach a ShardedExplorer constructed several layers down
# (detector.analyze → RepairAnalysis → repeated re-verifications …)
# without threading an unpicklable executor through every options
# object.  ``shard_context`` scopes an *ambient* pool (and an optional
# progress sink) to the current thread: everything the enclosed call
# tree explores shards onto the provided executor instead of a per-call
# pool.  Thread-local on purpose — the context names an owner, it never
# re-creates the cached-global landmine above, and concurrent daemon
# jobs in different threads can share one resident pool without seeing
# each other's progress sinks.


class _ShardContext(threading.local):
    """Per-thread ambient (pool, progress sink) for nested explorations."""

    pool: Optional[Executor] = None
    progress: Optional[Callable[[Dict[str, Any]], None]] = None


_CONTEXT = _ShardContext()


@contextmanager
def shard_context(pool: Optional[Executor] = None,
                  progress: Optional[Callable[[Dict[str, Any]], None]]
                  = None):
    """Scope an owned executor (and progress sink) over a call tree.

    Every :class:`ShardedExplorer` created in this thread while the
    context is active uses ``pool`` instead of a per-call
    ``ProcessPoolExecutor`` and reports merge progress to ``progress``.
    The caller owns the pool's lifetime (see the note above).
    """
    previous = (_CONTEXT.pool, _CONTEXT.progress)
    _CONTEXT.pool, _CONTEXT.progress = pool, progress
    try:
        yield
    finally:
        _CONTEXT.pool, _CONTEXT.progress = previous


def ambient_pool() -> Optional[Executor]:
    """The executor scoped by the innermost :func:`shard_context`."""
    return _CONTEXT.pool


def ambient_progress() -> Optional[Callable[[Dict[str, Any]], None]]:
    """The progress sink scoped by the innermost :func:`shard_context`."""
    return _CONTEXT.progress


@dataclass(frozen=True)
class _Leaf:
    """A path that completed in the parent during splitting."""

    path: PathResult
    steps: int


@dataclass
class _Pending:
    """A live subtree root: the state plus its root action prefix."""

    state: MachineState
    actions: Tuple[_Action, ...]


_Slot = Union[_Leaf, _Pending]


def _run_shard(program, config: Config, options: ExplorationOptions,
               rsb_policy: str, actions: Tuple[_Action, ...],
               stop_at_first: bool, keep_paths: bool, trace: bool = False
               ) -> Tuple[ExplorationResult, Optional[Tuple], int, float,
                          Optional[List[Dict[str, Any]]]]:
    """Worker entry point: replay the prefix, explore the subtree.

    Module-level (not a closure) so it pickles under every
    multiprocessing start method.  Returns (result, path metadata,
    prefix steps actually replayed, wall seconds, exported spans).
    ``keep_paths=False`` strips the per-path records before the result
    crosses the process boundary — a clean-at-bound-28 donna
    exploration ships ~20 MiB of paths otherwise, and detector callers
    only consume violations + counters — replacing them with compact
    per-path (steps, violations, complete) triples so the merge's
    global-budget trim stays exact.  ``trace`` (the parent's ambient
    tracer does not cross the process boundary) records the subtree
    exploration into a worker-local tracer whose spans ride home in
    the return value for the parent to adopt under this job's merge
    slot.
    """
    t0 = time.perf_counter()
    tracer = Tracer() if trace else None
    with tracing_context(tracer):
        machine = Machine(program, rsb_policy=rsb_policy)
        explorer = Explorer(machine, options)
        state = MachineState(config)
        for action in actions:
            if not explorer._apply(state, action):  # pragma: no cover
                raise RuntimeError(
                    f"shard prefix failed to replay at {action!r}: the "
                    f"machine is not deterministic for this evaluator")
        # Joins fired *inside* the prefix were already counted by the
        # parent when the splitter applied these actions — without this
        # reset a job whose root is a join-finished state would report
        # the same pruned schedule twice after the merge sums shard
        # counters.
        explorer._skipped = 0
        result = explorer.explore_from([state], stop_at_first=stop_at_first)
    meta = None
    if not keep_paths:
        meta = tuple((len(p.schedule), len(p.violations), p.complete)
                     for p in result.paths)
        result.paths = []
    spans = tracer.export() if tracer is not None else None
    return result, meta, len(actions), time.perf_counter() - t0, spans


def _trim_to_quota(result: ExplorationResult, quota: int,
                   meta: Optional[Tuple] = None) -> ExplorationResult:
    """Cut a shard result down to the remaining global path budget.

    The cut is exact either way: from the per-path records when they
    were kept, or from the worker's compact (steps, violations,
    complete) metadata when ``keep_paths=False`` stripped them
    (violations are concatenated in path-completion order, so a prefix
    of the metadata identifies the prefix of the violation list).  The
    kept paths, violations and step counts are precisely what the
    single-process explorer would have produced before hitting the
    cap; the result is flagged truncated so capped coverage is never
    reported as complete.
    """
    if len(result.paths) == result.paths_explored:
        kept = result.paths[:quota]
        result.paths = kept
        result.violations = [v for p in kept for v in p.violations]
        result.paths_explored = quota
        result.states_stepped = sum(len(p.schedule) for p in kept)
        result.exhausted_paths = sum(1 for p in kept if not p.complete)
    elif meta is not None:
        kept_meta = meta[:quota]
        result.violations = result.violations[
            :sum(v for _s, v, _c in kept_meta)]
        result.paths_explored = quota
        result.states_stepped = sum(s for s, _v, _c in kept_meta)
        result.exhausted_paths = sum(1 for _s, _v, c in kept_meta if not c)
    result.truncated = True
    return result


class ShardedExplorer:
    """Split DT(bound) at its first fork levels and explore the
    subtrees on a process pool.

        result = ShardedExplorer(machine, options, shards=4).explore(cfg)

    ``pool`` may supply a long-lived executor (benchmarks and sweeps
    reuse one across targets to amortise worker start-up); otherwise a
    pool of ``shards`` workers is created and torn down per call — see
    the fork-safety note above for why the default is not cached.
    ``keep_paths=False`` drops the per-path records from shard results
    (violations and counters survive) — what the detector wants, and
    much cheaper to ship back from the workers.
    """

    def __init__(self, machine: Machine, options: ExplorationOptions,
                 shards: int = 2, pool: Optional[Executor] = None,
                 keep_paths: bool = True,
                 progress: Optional[Callable[[Dict[str, Any]], None]]
                 = None, clock: Optional[Callable[[], float]] = None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        from ..core.isa import ConcreteEvaluator
        if type(machine.evaluator) is not ConcreteEvaluator:
            # Workers rebuild the machine from (program, rsb_policy)
            # with the default evaluator; silently exploring subtrees
            # under a different evaluator than the split would be
            # unsound.  Callers with custom evaluators use Explorer
            # (detector.analyze falls back automatically).
            raise ValueError(
                f"sharded exploration requires the default concrete "
                f"evaluator, got {type(machine.evaluator).__name__}; "
                f"use Explorer for custom evaluators")
        self.machine = machine
        self.options = options
        self.shards = shards
        # An explicit pool wins; otherwise a shard_context's ambient
        # pool (the daemon's resident workers); otherwise per-call.
        self.pool = pool if pool is not None else ambient_pool()
        self.keep_paths = keep_paths
        self.progress = progress if progress is not None \
            else ambient_progress()
        #: Parent-side monotonic clock (injectable for deterministic
        #: anytime tests); workers always use the real clock — a fake
        #: clock does not cross the process boundary.
        self._clock = clock if clock is not None else time.monotonic
        self._t0: Optional[float] = None
        self._deadline: Optional[float] = None

    # -- the three phases ----------------------------------------------------

    def explore(self, initial: Config,
                stop_at_first: bool = False) -> ExplorationResult:
        explorer = Explorer(self.machine, self.options, clock=self._clock)
        # The explorer captured the ambient tracer at construction;
        # the split/merge phases record onto the same stream, and the
        # submit path forwards its enabled flag to the workers (the
        # ambient itself cannot cross the process boundary).
        tracer = explorer._tracer
        # One deadline for the whole sharded run, armed before the split
        # (splitting counts against the budget) and pinned onto the
        # parent explorer so sequential local jobs share it instead of
        # each restarting the budget in explore_from.
        self._t0 = self._clock()
        self._deadline = None
        explorer._started = self._t0
        if self.options.budget_seconds is not None:
            self._deadline = self._t0 + self.options.budget_seconds
            explorer._deadline = self._deadline
        split_ts = tracer.start() if tracer.enabled else 0.0
        slots = self._split(explorer, MachineState(initial))
        jobs = [slot for slot in slots if isinstance(slot, _Pending)]
        if tracer.enabled:
            tracer.add("split", "shard", split_ts, {
                "jobs": len(jobs), "leaves": len(slots) - len(jobs),
                "shards": self.shards})
        self._emit({"kind": "split", "jobs": len(jobs),
                    "leaves": len(slots) - len(jobs),
                    "shards": self.shards})
        if len(jobs) <= 1 or self.shards == 1 or (
                self._deadline is not None
                and self._clock() >= self._deadline):
            # Nothing worth forking a pool for — or the budget is
            # already gone, in which case the local merge charges each
            # skipped job to the unexplored frontier instead of paying
            # pool start-up for workers that would break immediately.
            return self._merge(explorer, slots, [], stop_at_first,
                               run_local=True)
        if self.pool is not None:
            return self._merge(
                explorer, slots,
                self._submit(self.pool, initial, slots, stop_at_first,
                             trace=tracer.enabled),
                stop_at_first)
        with ProcessPoolExecutor(max_workers=self.shards) as pool:
            return self._merge(
                explorer, slots,
                self._submit(pool, initial, slots, stop_at_first,
                             trace=tracer.enabled),
                stop_at_first)

    def _emit(self, event: Dict[str, Any]) -> None:
        """Publish a progress event; sink errors never sink the run."""
        if self.progress is None:
            return
        try:
            self.progress(event)
        except Exception:  # pragma: no cover - defensive
            pass

    def _split(self, explorer: Explorer, root: MachineState) -> List[_Slot]:
        """Expand the scheduler level-synchronously until there are
        enough pending subtree roots, preserving DFS slot order."""
        fanout = max(self.shards * OVERPARTITION, self.shards)
        slots: List[_Slot] = [_Pending(root, ())]
        for _level in range(MAX_SPLIT_LEVELS):
            live = sum(isinstance(s, _Pending) for s in slots)
            if live >= fanout or live == 0:
                break
            new_slots: List[_Slot] = []
            progressed = False
            for slot in slots:
                if isinstance(slot, _Leaf):
                    new_slots.append(slot)
                    continue
                record: List[_Action] = []
                arms = explorer.advance_to_fork(slot.state, record)
                actions = slot.actions + tuple(record)
                if arms is None:
                    if explorer._telemetry is not None:
                        # Split-phase leaves never pass through
                        # explore_from, so their completed schedules are
                        # latched here — every schedule counts exactly
                        # once, whichever phase finishes it.
                        explorer._telemetry.record_schedule(
                            slot.state.depth)
                    new_slots.append(_Leaf(explorer._materialize(slot.state),
                                           slot.state.steps))
                    continue
                progressed = True
                explorer.engine.count_fork(len(arms))
                # expand() is the explorer's own arm-application (and,
                # under prune="full", degenerate-arm collapse), so the
                # split sees exactly the fork structure a single-process
                # run would: pruning composes with sharding because the
                # cut only ever lands on surviving, non-redundant arms.
                children = [_Pending(clone, actions + applied)
                            for clone, applied
                            in explorer.expand(slot.state, arms)]
                # The DFS explorer pushes arms in order and pops the
                # last first, so DFS visits them reversed — keep the
                # merged path order identical to the seed's.
                new_slots.extend(reversed(children))
            slots = new_slots
            if not progressed:
                break
        return slots

    def _submit(self, pool: Executor, initial: Config, slots: List[_Slot],
                stop_at_first: bool, trace: bool = False) -> List:
        futures = []
        for slot in slots:
            if not isinstance(slot, _Pending):
                continue
            options = self.options
            if self._deadline is not None:
                # Ship the budget *remaining at submission* as the
                # worker's own deadline (a clock reading can't cross the
                # process boundary; a duration can).  Clamped positive:
                # a worker handed an expired budget arms an immediate
                # deadline and reports one honest unexplored-frontier
                # slot instead of exploring.
                remaining = max(self._deadline - self._clock(), 1e-9)
                options = replace(options, budget_seconds=remaining)
            futures.append(pool.submit(
                _run_shard, self.machine.program, initial, options,
                self.machine.rsb_policy, slot.actions, stop_at_first,
                self.keep_paths, trace))
        return futures

    # -- deterministic merge -------------------------------------------------

    def _merge(self, explorer: Explorer, slots: List[_Slot], futures: List,
               stop_at_first: bool, run_local: bool = False
               ) -> ExplorationResult:
        merged = ExplorationResult()
        tracer = explorer._tracer
        merge_ts = tracer.start() if tracer.enabled else 0.0
        shard_stats: List[ShardStats] = []
        #: Remote shards' serialised telemetry sections, merged (with
        #: the parent explorer's own accumulator, which local jobs
        #: share) into one section at the end.
        telemetry_parts: List[Dict[str, Any]] = []
        job_index = 0
        stopped = False
        deadline = self._deadline
        #: Pending jobs never run: cancelled past the deadline, or cut
        #: off by the local-mode deadline check.  Each is at least one
        #: unexplored frontier item in the merged anytime accounting.
        skipped_jobs = 0
        anytime_parts: List[AnytimeStats] = []
        # States recorded across all per-shard SeenStates tables (each
        # worker owns its own; only the counters cross the boundary).
        # Local jobs share the parent explorer's table, counted once at
        # the end.
        remote_states_seen = 0
        for slot in slots:
            if stopped:
                break
            # Enforce the *global* path budget at merge time: shards run
            # with their own max_paths, so without this the merged run
            # could explore up to jobs × max_paths paths.  Every pending
            # slot holds at least one path, so quota exhaustion with
            # slots left is exactly the single-process "cap hit with a
            # non-empty frontier" condition.
            remaining = self.options.max_paths - merged.paths_explored
            if remaining <= 0:
                merged.truncated = True
                stopped = True
                break
            if isinstance(slot, _Leaf):
                merged.paths_explored += 1
                merged.states_stepped += slot.steps
                merged.paths.append(slot.path)
                merged.violations.extend(slot.path.violations)
                if not slot.path.complete:
                    merged.exhausted_paths += 1
                if slot.path.violations:
                    # Paths that completed *during the split* never pass
                    # through explore_from, so latch their first-violation
                    # stats here (attributed to the whole split's applied
                    # steps — the work that existed when the leaf was
                    # found).  merge() below still adopts any shard's
                    # earlier (fewer-steps) hit.
                    explorer.engine.stats.record_first_violation(
                        merged.paths_explored, explorer._applied,
                        self._clock() - self._t0)
                if stop_at_first and slot.path.violations:
                    stopped = True
                continue
            if run_local:
                if deadline is not None and self._clock() >= deadline:
                    # Budget gone: this subtree root stays unexplored
                    # (counted as remaining frontier), deterministically
                    # — no partial job output to merge.
                    skipped_jobs += 1
                    merged.truncated = True
                    continue
                # Explorer._finalize reports *cumulative* counters per
                # explorer, so sequential local jobs are accounted via
                # deltas of the shared parent explorer instead.
                applied_before = explorer._applied
                t0 = time.perf_counter()
                result = explorer.explore_from([slot.state],
                                               stop_at_first=stop_at_first)
                wall = time.perf_counter() - t0
                meta = None
                prefix_len = len(slot.actions)
                shard_applied = explorer._applied - applied_before
            else:
                future = futures[job_index]
                if deadline is not None and self._clock() >= deadline \
                        and future.cancel():
                    # Deadline passed and the job never started: skip it
                    # (an already-running job is awaited instead — its
                    # own remaining budget bounds the overshoot, and
                    # results that exist are never discarded).
                    job_index += 1
                    skipped_jobs += 1
                    merged.truncated = True
                    continue
                result, meta, prefix_len, wall, spans = future.result()
                if spans:
                    # Worker span streams land under this job's merge
                    # slot; (shard, seq) keys make the combined export
                    # deterministic even though worker clocks are
                    # unrelated monotonic bases.
                    tracer.adopt(spans, shard=len(shard_stats))
                if result.telemetry is not None:
                    telemetry_parts.append(result.telemetry)
                shard_applied = result.applied_steps
                merged.applied_steps += result.applied_steps
                merged.states_reused += result.states_reused
                explorer.engine.stats.merge(result.engine)
                if result.pruning is not None:
                    explorer._skipped += result.pruning.schedules_skipped
                if result.subsumption is not None:
                    remote_states_seen += result.subsumption.states_seen
            job_index += 1
            if result.anytime is not None:
                anytime_parts.append(result.anytime)
            if result.paths_explored > remaining:
                result = _trim_to_quota(result, remaining, meta)
            merged.paths.extend(result.paths)
            merged.violations.extend(result.violations)
            merged.paths_explored += result.paths_explored
            merged.states_stepped += result.states_stepped
            merged.exhausted_paths += result.exhausted_paths
            merged.truncated = merged.truncated or result.truncated
            shard_stats.append(ShardStats(
                index=len(shard_stats), prefix_len=prefix_len,
                paths_explored=result.paths_explored,
                violations=len(result.violations),
                states_stepped=shard_applied,
                truncated=result.truncated, wall_time=wall))
            # Streaming results: each merged shard publishes its
            # ShardStats plus the *new* findings it contributed, so a
            # daemon's held status can report partial findings while
            # later shards are still running.
            self._emit({"kind": "shard", "index": len(shard_stats) - 1,
                        "prefix_len": prefix_len,
                        "paths_explored": result.paths_explored,
                        "violations": len(result.violations),
                        "states_stepped": shard_applied,
                        "truncated": result.truncated,
                        "wall_time": wall,
                        "cumulative_paths": merged.paths_explored,
                        "cumulative_violations": len(merged.violations),
                        "new_findings": [repr(v.observation)
                                         for v in result.violations]})
            if stop_at_first and result.violations:
                stopped = True
        if stopped:
            # Early-cancel outstanding shards; already-running ones
            # finish but their results are discarded, keeping the
            # merged output deterministic.
            for future in futures[job_index:]:
                future.cancel()
        # The split work itself (forced moves up to the cut, counted in
        # the parent explorer) joins the totals; in local mode this
        # term is the whole single-process count.
        merged.applied_steps += explorer._applied
        if run_local:
            merged.states_reused = max(
                0, merged.states_stepped - merged.applied_steps)
        if explorer._subsumed_notes:
            # Arms the *parent* subsumed while splitting (local jobs
            # drain theirs through _finalize): their prefix violations
            # must survive the prune.
            merged.violations.extend(
                note.materialize() for note in explorer._subsumed_notes)
            explorer._subsumed_notes = []
        merged.engine = explorer.engine.stats.snapshot()
        merged.shards = tuple(shard_stats)
        merged.pruning = PruningStats(
            self.options.prune, classes_explored=merged.paths_explored,
            schedules_skipped=explorer._skipped)
        parent_seen = explorer._seen
        merged.subsumption = SubsumptionStats(
            self.options.subsume,
            remote_states_seen + (parent_seen.states_seen
                                  if parent_seen is not None else 0),
            merged.engine.states_subsumed)
        if self.options.budget_seconds is not None:
            deadline_hit = (skipped_jobs > 0 or explorer._deadline_hit
                            or any(a.deadline_hit for a in anytime_parts))
            merged.anytime = AnytimeStats(
                budget_seconds=self.options.budget_seconds,
                budget_consumed=self._clock() - self._t0,
                deadline_hit=deadline_hit,
                paths_explored=merged.paths_explored,
                frontier_remaining=(
                    skipped_jobs
                    + sum(a.frontier_remaining for a in anytime_parts)),
                first_violation_time=merged.engine.first_violation_wall)
            merged.truncated = merged.truncated or deadline_hit
        if self.options.telemetry:
            # One merged section: the parent explorer's accumulator
            # (split-time leaves plus every local job, which share it)
            # plus each remote shard's serialised part.  Rebuilt from
            # scratch so remote sections are summed once regardless of
            # how many cumulative snapshots the workers reported.
            telemetry = SearchTelemetry()
            if explorer._telemetry is not None:
                telemetry.merge(explorer._telemetry)
            for part in telemetry_parts:
                telemetry.merge_section(part)
            merged.telemetry = telemetry.to_section(
                self._clock() - self._t0)
        if tracer.enabled:
            tracer.add("merge", "shard", merge_ts, {
                "jobs_merged": len(shard_stats),
                "paths": merged.paths_explored,
                "violations": len(merged.violations),
                "truncated": merged.truncated})
        self._emit({"kind": "merged",
                    "paths_explored": merged.paths_explored,
                    "violations": len(merged.violations),
                    "truncated": merged.truncated,
                    "engine_steps": merged.engine.steps,
                    "engine_forks": merged.engine.forks,
                    "engine_reused": merged.engine.reused})
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedExplorer(shards={self.shards}, "
                f"strategy={self.options.strategy!r})")
