"""The Pitchfork detector front end (Section 4.2).

``analyze`` runs one exploration; ``analyze_two_phase`` reproduces the
paper's evaluation procedure exactly (§4.2.1):

1. run *without* forwarding-hazard detection (Spectre v1/v1.1 only) at a
   large speculation bound (paper: 250);
2. only if that is clean, re-run *with* forwarding-hazard detection
   (Spectre v4) at a reduced bound (paper: 20) to keep the analysis
   tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Tuple

from ..core.config import Config
from ..core.isa import Evaluator
from ..core.machine import Machine
from ..core.program import Program
from ..engine import PruningStats, SubsumptionStats
from .explorer import (AnytimeStats, ExplorationOptions, Explorer,
                       ShardStats, Violation)

#: The speculation bounds used in the paper's evaluation.
PAPER_BOUND_NO_FWD = 250
PAPER_BOUND_FWD = 20


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of a Pitchfork analysis of one binary/configuration."""

    name: str
    secure: bool
    violations: Tuple[Violation, ...]
    paths_explored: int
    #: Schedule steps actually executed (each shared DFS prefix counts
    #: once).  Disjoint from ``states_reused``; their sum is what
    #: fork-by-copy re-execution would have cost.  Every analysis
    #: reports this pair with the same meaning.
    states_stepped: int
    truncated: bool
    phase: str                  #: "v1/v1.1", "v4", or "combined"
    bound: int
    #: Steps served from shared prefixes / the engine's step cache
    #: instead of being re-executed (0 for legacy producers).
    states_reused: int = 0
    #: Per-shard accounting for sharded explorations (empty otherwise).
    shards: Tuple[ShardStats, ...] = ()
    #: Partial-order-reduction accounting (None for legacy producers):
    #: the pruning level, Mazurkiewicz-class representatives explored,
    #: and pruned subtree roots.  See :mod:`repro.engine.por`.
    pruning: Optional[PruningStats] = None
    #: Redundant-state-subsumption accounting (None for legacy
    #: producers): whether the SeenStates table was on, states recorded,
    #: fork arms pruned.  See :mod:`repro.engine.subsume`.
    subsumption: Optional[SubsumptionStats] = None
    #: Anytime coverage accounting; present iff a wall-clock budget was
    #: set.  A budget-truncated run reports ``truncated=True`` (never
    #: clean coverage).  See :class:`~repro.pitchfork.explorer.AnytimeStats`.
    anytime: Optional[AnytimeStats] = None
    #: Deterministic time-to-first-violation: ``{"pops", "steps",
    #: "wall_time"}`` when the run found a violation (pops and machine
    #: steps are strategy-comparable without external timing), None on
    #: clean runs and for legacy producers.
    first_violation: Optional[Mapping] = None
    #: Search telemetry (``{"heatmap", "fork_levels", "pops",
    #: "wall_time"}``, see :mod:`repro.obs.telemetry`); present iff the
    #: run was asked for it (``telemetry=True``), None otherwise.
    telemetry: Optional[Mapping] = None

    def __bool__(self) -> bool:
        return self.secure


def analyze(program: Program, config: Config, *,
            name: str = "<program>",
            stop_at_first: bool = True,
            evaluator: Optional[Evaluator] = None,
            rsb_policy: str = "directive",
            shards: int = 1,
            clock: Optional[Callable[[], float]] = None,
            exploration: Optional[ExplorationOptions] = None,
            **knobs) -> AnalysisReport:
    """One Pitchfork run: explore DT(bound), flag secret observations.

    The search knobs are :class:`ExplorationOptions` fields, given as
    ``exploration`` and/or as keywords (``bound=12, prune="full"``)
    applied on top of it; an unknown keyword raises ``TypeError``.
    Neither ``strategy`` (the frontier's search order) nor ``shards >
    1`` (DT(bound) partitioned into subtree jobs on a process pool, see
    :mod:`repro.pitchfork.sharding`) nor any ``prune`` level changes
    the flagged violation set: Theorem B.20 quantifies over the
    schedule set, which reordering, partitioning and partial-order
    reduction leave intact.  ``subsume`` keeps the observation set too;
    under sharding each shard keeps its own table and the counters
    merge.  A ``budget_seconds`` run stops at the wall-clock deadline
    and is reported truncated (never clean), with honest coverage in
    ``report.anytime``; ``telemetry`` attaches the search heatmap and
    fork-level histogram.  Sharding rebuilds the machine in worker
    processes, so a custom ``evaluator`` forces the single-process
    path.  ``clock`` injects a monotonic clock for deterministic
    anytime tests (parent process only; shard workers keep the real
    clock).
    """
    options = replace(exploration or ExplorationOptions(), **knobs)
    machine = Machine(program, evaluator=evaluator, rsb_policy=rsb_policy)
    if shards > 1 and evaluator is None:
        from .sharding import ShardedExplorer
        result = ShardedExplorer(machine, options, shards=shards,
                                 keep_paths=False, clock=clock).explore(
                                     config, stop_at_first=stop_at_first)
    else:
        result = Explorer(machine, options, clock=clock).explore(
            config, stop_at_first=stop_at_first)
    phase = "v4" if options.fwd_hazards else "v1/v1.1"
    truncated = result.truncated or result.exhausted_paths > 0
    engine = result.engine
    first_violation = None
    if engine is not None and engine.first_violation_steps is not None:
        first_violation = {"pops": engine.first_violation_pops,
                           "steps": engine.first_violation_steps,
                           "wall_time": engine.first_violation_wall}
    return AnalysisReport(name, result.secure, tuple(result.violations),
                          result.paths_explored, result.applied_steps,
                          truncated, phase, options.bound,
                          states_reused=result.states_reused,
                          shards=result.shards,
                          pruning=result.pruning,
                          subsumption=result.subsumption,
                          anytime=result.anytime,
                          first_violation=first_violation,
                          telemetry=result.telemetry)


def analyze_two_phase(program: Program, config: Config,
                      name: str = "<program>",
                      bound_no_fwd: int = PAPER_BOUND_NO_FWD,
                      bound_fwd: int = PAPER_BOUND_FWD,
                      max_paths: int = 20_000) -> AnalysisReport:
    """The paper's two-phase procedure (§4.2.1).

    Phase 1 looks for v1/v1.1 violations without forwarding hazards at
    ``bound_no_fwd``; if (and only if) it is clean, phase 2 re-enables
    forwarding-hazard detection at the reduced ``bound_fwd``.
    """
    first = analyze(program, config, bound=bound_no_fwd, fwd_hazards=False,
                    name=name, max_paths=max_paths)
    if not first.secure:
        return first
    second = analyze(program, config, bound=bound_fwd, fwd_hazards=True,
                     name=name, max_paths=max_paths)
    return second
