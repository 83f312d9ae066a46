"""Symbolic execution under attacker schedules (the angr half of §4.2).

The original Pitchfork "uses angr to symbolically execute a given
program according to each of its worst-case schedules".  This module is
that second half, self-contained:

* :class:`Sym` — a symbolic input over a finite domain (attacker-
  controlled indices, unknown lengths, …);
* symbolic expressions are opcode trees (:class:`App`) carried as value
  *payloads*; the machine is untouched — labels ride along exactly as in
  the concrete semantics;
* :class:`SymbolicEvaluator` plugs into :class:`repro.core.Machine`.
  Branch conditions over symbols raise :class:`Fork`; symbolic memory
  addresses are concretized against a model, mirroring angr's address
  concretization (§4.2: "angr concretizes addresses for memory
  operations instead of keeping them symbolic");
* :class:`SymbolicRunner` replays directive schedules, splitting into
  *worlds* (path constraints) at forks and pruning unsatisfiable ones;
* :func:`analyze_symbolic` combines both halves: enumerate the tool
  schedules DT(bound) on a concrete representative, then symbolically
  replay them, flag secret-labelled observations in any satisfiable
  world, and *solve* for an attacker input that triggers them.

Prefix-shared replay
--------------------

The schedule family DT(bound) is produced by a DFS whose fork points
give it a trie shape; the seed implementation nonetheless replayed
every schedule from step 0, re-executing each shared prefix once per
schedule.  The pipeline now walks the
:class:`repro.engine.ScheduleTree` from
:func:`~repro.pitchfork.schedules.enumerate_schedule_tree` instead
(:meth:`SymbolicRunner.run_tree`): worlds advance through every
distinct prefix exactly once and are *shared* by all schedules below
it, then snapshot/resume (worlds are immutable records over persistent
logs) lets each child arm continue from the deepest shared prefix.
For fully concrete inputs the replay collapses further: one machine
step is a function of (configuration, directive) — Theorem B.1 — so
the explorer's recorded traces *are* the replay, and the pipeline
harvests them without re-stepping anything (counted as ``reused`` in
:class:`ReplayStats`).

Satisfiability is decided by bounded enumeration over the (finite,
small) symbol domains — honest and exact for the gadget-sized programs
this reproduction targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..core.config import Config
from ..core.directives import Schedule
from ..core.errors import ReproError, StuckError
from ..core.isa import Evaluator, OPCODES, sum_addr
from ..core.lattice import Label
from ..core.machine import Machine
from ..core.observations import Observation, Trace, secret_observations
from ..core.program import Program
from ..core.values import Value, join_labels
from ..engine import (EMPTY_LOG, EngineStats, Log, ScheduleTree, TreeNode,
                      make_frontier)
from .explorer import ExplorationOptions
from .schedules import enumerate_schedule_tree


# ---------------------------------------------------------------------------
# Symbolic expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sym:
    """A symbolic input variable over a finite domain."""

    name: str
    domain: Tuple[int, ...]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"${self.name}"


@dataclass(frozen=True)
class App:
    """An opcode applied to symbolic/concrete arguments."""

    op: str
    args: Tuple["SymExpr", ...]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.op}({', '.join(map(repr, self.args))})"


SymExpr = Union[int, Sym, App]


def symbols_of(expr: SymExpr) -> Tuple[Sym, ...]:
    """All symbols occurring in an expression."""
    if isinstance(expr, Sym):
        return (expr,)
    if isinstance(expr, App):
        out: List[Sym] = []
        for a in expr.args:
            for s in symbols_of(a):
                if s not in out:
                    out.append(s)
        return tuple(out)
    return ()


def eval_expr(expr: SymExpr, model: Dict[str, int]) -> int:
    """Evaluate an expression under a model (symbol assignment)."""
    if isinstance(expr, int):
        return expr
    if isinstance(expr, Sym):
        return model[expr.name]
    arity, fn = OPCODES[expr.op]
    args = [eval_expr(a, model) for a in expr.args]
    return fn(*args)


# ---------------------------------------------------------------------------
# Path constraints and bounded solving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """``expr != 0`` (when truthy) or ``expr == 0``."""

    expr: SymExpr
    truthy: bool

    def holds(self, model: Dict[str, int]) -> bool:
        value = eval_expr(self.expr, model)
        return bool(value) == self.truthy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rel = "!= 0" if self.truthy else "== 0"
        return f"{self.expr!r} {rel}"


MAX_MODELS = 65536


def solve(constraints: Sequence[Constraint],
          extra_symbols: Iterable[Sym] = ()) -> Optional[Dict[str, int]]:
    """A model satisfying all constraints, or None.

    Bounded exhaustive search over the product of the symbol domains;
    raises :class:`ReproError` if the space exceeds ``MAX_MODELS``.
    """
    symbols: List[Sym] = list(extra_symbols)
    for c in constraints:
        for s in symbols_of(c.expr):
            if s not in symbols:
                symbols.append(s)
    if not symbols:
        return {} if all(c.holds({}) for c in constraints) else None
    space = 1
    for s in symbols:
        space *= len(s.domain)
    if space > MAX_MODELS:
        raise ReproError(f"symbolic domain too large ({space} models)")
    for combo in itertools.product(*(s.domain for s in symbols)):
        model = {s.name: v for s, v in zip(symbols, combo)}
        if all(c.holds(model) for c in constraints):
            return model
    return None


def feasible_values(expr: SymExpr,
                    constraints: Sequence[Constraint]) -> List[int]:
    """All values ``expr`` can take under the constraints (bounded)."""
    symbols: List[Sym] = list(symbols_of(expr))
    for c in constraints:
        for s in symbols_of(c.expr):
            if s not in symbols:
                symbols.append(s)
    if not symbols:
        return [eval_expr(expr, {})]
    space = 1
    for s in symbols:
        space *= len(s.domain)
    if space > MAX_MODELS:
        raise ReproError(f"symbolic domain too large ({space} models)")
    values = set()
    for combo in itertools.product(*(s.domain for s in symbols)):
        model = {s.name: v for s, v in zip(symbols, combo)}
        if all(c.holds(model) for c in constraints):
            values.add(eval_expr(expr, model))
    return sorted(values)


# ---------------------------------------------------------------------------
# The pluggable evaluator
# ---------------------------------------------------------------------------

class Fork(ReproError):
    """A branch condition (or comparison) needs a decision."""

    def __init__(self, expr: SymExpr):
        super().__init__(f"fork on {expr!r}")
        self.expr = expr


class NeedConcretization(ReproError):
    """A symbolic value is used as a concrete address / jump target."""

    def __init__(self, expr: SymExpr):
        super().__init__(f"concretization needed for {expr!r}")
        self.expr = expr


def _is_concrete(value: Value) -> bool:
    return isinstance(value.val, int)


class SymbolicEvaluator(Evaluator):
    """Evaluator over int-or-:data:`SymExpr` payloads.

    Carries the *world state*: branch decisions already taken and
    address concretizations already committed.  The machine calls back
    in; undecided questions surface as :class:`Fork` /
    :class:`NeedConcretization`, which :class:`SymbolicRunner` resolves
    by splitting or solving, then retries the (pure) step.
    """

    #: Stateful (decisions accumulate), so machine steps under this
    #: evaluator are not a function of (configuration, directive) and
    #: must not be served from the execution engine's step cache.
    pure = False

    def __init__(self,
                 decisions: Optional[Dict[SymExpr, bool]] = None,
                 concretizations: Optional[Dict[SymExpr, int]] = None):
        self.decisions: Dict[SymExpr, bool] = dict(decisions or {})
        self.concretizations: Dict[SymExpr, int] = dict(concretizations or {})

    def clone(self) -> "SymbolicEvaluator":
        return SymbolicEvaluator(self.decisions, self.concretizations)

    # -- Evaluator interface -------------------------------------------------

    def evaluate(self, opcode: str, vals: Sequence[Value]) -> Value:
        if opcode not in OPCODES:
            raise ReproError(f"unknown opcode {opcode!r}")
        label = join_labels(vals)
        if all(_is_concrete(v) for v in vals):
            _arity, fn = OPCODES[opcode]
            return Value(fn(*(v.val for v in vals)), label)
        return Value(App(opcode, tuple(v.val for v in vals)), label)

    def address(self, vals: Sequence[Value]) -> Value:
        label = join_labels(vals)
        if all(_is_concrete(v) for v in vals):
            return Value(sum_addr([v.val for v in vals]), label)
        return Value(App("add", tuple(v.val for v in vals)), label)

    def truth(self, value: Value) -> bool:
        if _is_concrete(value):
            return bool(value.val)
        if value.val in self.decisions:
            return self.decisions[value.val]
        raise Fork(value.val)

    def concretize(self, value: Value) -> int:
        if _is_concrete(value):
            return value.val
        if value.val in self.concretizations:
            return self.concretizations[value.val]
        raise NeedConcretization(value.val)


# ---------------------------------------------------------------------------
# Symbolic replay of schedules
# ---------------------------------------------------------------------------

@dataclass
class ReplayStats:
    """Step accounting for one symbolic replay."""

    steps: int = 0          #: machine step rules attempted
    reused: int = 0         #: steps served by prefix sharing / harvesting
    solver_calls: int = 0   #: bounded-enumeration satisfiability queries
    worlds: int = 0         #: worlds spawned (splits and concretizations)
    truncated: bool = False  #: the max_worlds cap dropped coverage


@dataclass
class World:
    """One satisfiable path through a schedule."""

    config: Config
    evaluator: SymbolicEvaluator
    constraints: List[Constraint]
    trace: List[Observation]
    consumed: int = 0           #: directives executed so far
    stuck: bool = False         #: schedule became ill-formed here

    def model(self) -> Optional[Dict[str, int]]:
        return solve(self.constraints)


class _TreeWorld(NamedTuple):
    """An immutable world record for tree replay: forking a subtree is
    O(1) because constraints are tuples and the trace is a shared
    persistent log."""

    config: Config
    evaluator: SymbolicEvaluator
    constraints: Tuple[Constraint, ...]
    trace: Log
    consumed: int
    stuck: bool

    def to_world(self) -> World:
        return World(self.config, self.evaluator, list(self.constraints),
                     list(self.trace.materialize()), self.consumed,
                     self.stuck)


@dataclass(frozen=True)
class SymbolicFinding:
    """A secret observation plus an input model that reaches it."""

    observation: Observation
    schedule: Schedule
    constraints: Tuple[Constraint, ...]
    model: Dict[str, int]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SymbolicFinding({self.observation!r} with "
                f"{self.model})")


class SymbolicRunner:
    """Replays directive schedules with symbolic inputs.

    ``on_overflow`` selects what happens when the ``max_worlds`` cap
    bites: ``"raise"`` (the historical behaviour) aborts with
    :class:`ReproError`; ``"truncate"`` drops the excess worlds and
    records the fact in :attr:`stats` so callers can surface partial
    coverage instead of crashing.
    """

    def __init__(self, program: Program, max_worlds: int = 256,
                 on_overflow: str = "raise", strategy: str = "dfs",
                 seed: int = 0):
        if on_overflow not in ("raise", "truncate"):
            raise ValueError(f"unknown on_overflow {on_overflow!r}")
        self.program = program
        self.max_worlds = max_worlds
        self.on_overflow = on_overflow
        #: Tree-walk order for :meth:`run_tree` (the shared frontier
        #: core); results are keyed by enumeration index, so any
        #: strategy yields the same mapping unless the max_worlds cap
        #: bites (which worlds are dropped is visit-order dependent).
        self.strategy = strategy
        self.seed = seed
        self.stats = ReplayStats()

    # -- linear replay of one schedule --------------------------------------

    def run(self, config: Config, schedule: Schedule) -> List[World]:
        """All satisfiable worlds after replaying ``schedule``.

        Worlds where the schedule gets stuck early are kept (marked
        ``stuck``) — under Definition 3.1 those pairs are vacuous, but
        their partial traces matter for flagging.
        """
        worlds = [World(config, SymbolicEvaluator(), [], [])]
        done: List[World] = []
        while worlds:
            world = worlds.pop()
            if world.consumed >= len(schedule) or world.stuck:
                done.append(world)
                continue
            directive = schedule[world.consumed]
            machine = Machine(self.program, evaluator=world.evaluator)
            self.stats.steps += 1
            try:
                nxt, leak = machine.step(world.config, directive)
            except Fork as fork:
                for truthy in (True, False):
                    branch = self._decide(world, fork.expr, truthy)
                    if branch is not None:
                        worlds.append(branch)
                        if len(worlds) + len(done) > self.max_worlds and \
                                not self._overflow():
                            worlds.pop()
                continue
            except NeedConcretization as need:
                split = self._concretize(world, need.expr)
                for branch in split:
                    worlds.append(branch)
                    if len(worlds) + len(done) > self.max_worlds and \
                            not self._overflow():
                        worlds.pop()
                continue
            except StuckError:
                world.stuck = True
                done.append(world)
                continue
            world.config = nxt
            world.trace.extend(leak)
            world.consumed += 1
            worlds.append(world)
        return done

    def _overflow(self) -> bool:
        """Handle a max_worlds overflow; True keeps the new world."""
        if self.on_overflow == "raise":
            raise ReproError("too many symbolic worlds")
        self.stats.truncated = True
        return False

    def _decide(self, world: World, expr: SymExpr,
                truthy: bool) -> Optional[World]:
        for ev, constraints in self._decisions(world.evaluator,
                                               world.constraints, expr,
                                               (truthy,)):
            return World(world.config, ev, list(constraints),
                         list(world.trace), world.consumed, world.stuck)
        return None

    def _decisions(self, evaluator: SymbolicEvaluator,
                   constraints: Sequence[Constraint], expr: SymExpr,
                   arms: Sequence[bool] = (True, False)):
        """Shared branch-splitting arms: (evaluator', constraints') per
        satisfiable decision, used by both replay strategies."""
        for truthy in arms:
            extended = tuple(constraints) + (Constraint(expr, truthy),)
            self.stats.solver_calls += 1
            if solve(list(extended)) is None:
                continue
            ev = evaluator.clone()
            ev.decisions[expr] = truthy
            self.stats.worlds += 1
            yield ev, extended

    def _concretize(self, world: World, expr: SymExpr) -> List[World]:
        """angr-style address concretization.

        angr's default strategy commits a symbolic address to its
        *maximum* satisfiable value — which is what surfaces
        out-of-bounds accesses.  We fork one world per extreme value
        (max and, when different, min) and pin the address there.
        """
        out: List[World] = []
        for value, ev, constraints in self._concretizations(
                world.evaluator, world.constraints, world.config, expr):
            out.append(World(world.config, ev, list(constraints),
                             list(world.trace), world.consumed,
                             world.stuck))
        return out

    def _concretizations(self, evaluator: SymbolicEvaluator,
                         constraints: Sequence[Constraint], config: Config,
                         expr: SymExpr):
        """Shared concretization arms: (value, evaluator', constraints')."""
        self.stats.solver_calls += 1
        values = feasible_values(expr, list(constraints))
        picks: List[int] = []
        if values:
            picks = [min(values), max(values)]
            # Strategy refinement over plain angr min/max: if feasible
            # values land in memory the policy marks secret, try those
            # too — the tool knows the secrecy layout (§4.2.1: inputs
            # are annotated), so aiming reads at annotated ranges is the
            # natural concretization for leak-finding.
            mem = config.mem
            secret_hits = [v for v in values
                           if mem.is_mapped(v) and not mem.read(v).is_public()]
            picks += secret_hits[:4]
        picks = sorted(set(picks))
        for value in picks:
            ev = evaluator.clone()
            ev.concretizations[expr] = value
            eq = App("eq", (expr, value))
            self.stats.worlds += 1
            yield value, ev, tuple(constraints) + (Constraint(eq, True),)

    # -- prefix-shared replay of a whole schedule family ---------------------

    def run_tree(self, config: Config,
                 tree: ScheduleTree) -> List[Tuple[int, List[World]]]:
        """Replay every schedule in ``tree``, sharing prefixes.

        Returns ``(schedule_index, worlds)`` per enumerated schedule,
        in enumeration order — as long as the ``max_worlds`` cap never
        bites, the worlds are exactly what :meth:`run` would return
        for ``tree.schedules[index]``, but each distinct prefix is
        executed once and shared by all schedules below it instead of
        being re-run per schedule.  When the cap does bite, the walk
        keeps the earliest-created worlds at that node (the linear
        replay instead drops the newest per schedule), the loss is
        shared by every schedule beneath the node, and
        ``stats.truncated`` records it.
        """
        results: Dict[int, List[World]] = {}
        root = [_TreeWorld(config, SymbolicEvaluator(), (), EMPTY_LOG,
                           0, False)]
        # The shared search core: (node, parent worlds) items on the
        # configured frontier; advancing through the node's edge
        # happens at visit time so sibling subtrees share the parent's
        # (immutable) world list.  Results are keyed by enumeration
        # index, so every strategy returns the same mapping as long as
        # the max_worlds cap never bites.
        frontier = make_frontier(self.strategy, seed=self.seed)
        frontier.push((tree.root, root))
        while frontier:
            node, worlds = frontier.pop()
            if node.directive is not None:
                worlds = self._advance_all(worlds, node.directive,
                                           node.leaves)
            for index in node.leaf_indices:
                results[index] = [w.to_world() for w in worlds]
            frontier.extend((child, worlds) for child
                            in reversed(list(node.children.values())))
        return sorted(results.items())

    def _advance_all(self, worlds: List[_TreeWorld], directive,
                     leaves: int) -> List[_TreeWorld]:
        out: List[_TreeWorld] = []
        for world in worlds:
            out.extend(self._advance(world, directive, leaves))
            if len(out) > self.max_worlds:
                self._overflow()
                out = out[:self.max_worlds]
        return out

    def _advance(self, world: _TreeWorld, directive,
                 leaves: int) -> List[_TreeWorld]:
        """One directive for one world; may split, stick, or die.

        ``leaves`` is the number of schedules sharing this step — every
        execution here stands in for that many naive from-scratch
        replays, which is what the ``reused`` counter records.
        """
        if world.stuck:
            # A stuck world is carried to every schedule below at zero
            # cost (the naive replay re-ran it to the stuck point each
            # time).
            self.stats.reused += leaves - 1 if leaves > 1 else 0
            return [world]
        pending = [world]
        out: List[_TreeWorld] = []
        while pending:
            w = pending.pop()
            machine = Machine(self.program, evaluator=w.evaluator)
            self.stats.steps += 1
            self.stats.reused += leaves - 1
            try:
                nxt, leak = machine.step(w.config, directive)
            except Fork as fork:
                for ev, constraints in self._decisions(
                        w.evaluator, w.constraints, fork.expr):
                    pending.append(w._replace(evaluator=ev,
                                              constraints=constraints))
                continue
            except NeedConcretization as need:
                for _value, ev, constraints in self._concretizations(
                        w.evaluator, w.constraints, w.config, need.expr):
                    pending.append(w._replace(evaluator=ev,
                                              constraints=constraints))
                continue
            except StuckError:
                out.append(w._replace(stuck=True))
                continue
            out.append(_TreeWorld(nxt, w.evaluator, w.constraints,
                                  w.trace.extend(leak), w.consumed + 1,
                                  False))
        return out


# ---------------------------------------------------------------------------
# The combined pipeline
# ---------------------------------------------------------------------------

def representative_config(config: Config) -> Config:
    """Replace every symbolic payload by its first domain element (the
    concrete run used to enumerate schedules)."""
    regs = {}
    for r, v in config.regs.items():
        if isinstance(v.val, Sym):
            regs[r] = Value(v.val.domain[0], v.label)
        else:
            regs[r] = v
    mem = config.mem
    for addr in list(mem.addresses()):
        v = mem.read(addr)
        if isinstance(v.val, Sym):
            mem = mem.write(addr, Value(v.val.domain[0], v.label))
    return config.with_(regs=regs, mem=mem)


def _config_is_concrete(config: Config) -> bool:
    """No symbolic payload anywhere: replay degenerates to harvesting."""
    if any(not _is_concrete(v) for v in config.regs.values()):
        return False
    return all(isinstance(v.val, int) for v in config.mem.cells().values())


@dataclass
class SymbolicResult:
    """Everything :func:`analyze_symbolic_result` produced."""

    findings: List[SymbolicFinding]
    schedules: int                 #: tool schedules enumerated
    truncated: bool                #: any cap cut coverage
    replay: ReplayStats
    enumeration: Optional[EngineStats] = None

    @property
    def secure(self) -> bool:
        return not self.findings

    @property
    def states_stepped(self) -> int:
        """Machine steps the whole pipeline actually evaluated."""
        enum = self.enumeration.steps if self.enumeration else 0
        return enum + self.replay.steps

    @property
    def states_reused(self) -> int:
        """Steps avoided through prefix sharing, harvesting and the
        engine's trial-step cache."""
        enum = self.enumeration.avoided if self.enumeration else 0
        return enum + self.replay.reused


#: The symbolic back end's default exploration: a smaller bound, no
#: forwarding hazards, at most 512 enumerated schedules.
SYMBOLIC_EXPLORATION = ExplorationOptions(bound=16, fwd_hazards=False,
                                          max_paths=512)


def analyze_symbolic_result(program: Program, config: Config, *,
                            exploration: Optional[ExplorationOptions] = None,
                            max_worlds: int = 256,
                            **knobs) -> SymbolicResult:
    """Pitchfork with its symbolic back end, with full accounting.

    Enumerates tool schedules on a concrete representative — keeping
    their DFS fork structure — then replays the schedule *tree*
    symbolically: every shared prefix executes once.  Fully concrete
    configurations skip the replay entirely and harvest the explorer's
    recorded traces (sound by determinism, Theorem B.1).  Returns every
    secret-labelled observation together with a solved attacker-input
    model, plus truncation flags and step/reuse counters.

    The enumeration's knobs are ``exploration`` (default
    :data:`SYMBOLIC_EXPLORATION`; ``max_paths`` caps the schedules)
    with keyword ``knobs`` applied on top.  It always assumes unknown
    branches, and refuses ``subsume``: two equal concrete states may
    differ in the symbolic worlds reaching them.
    """
    options = replace(exploration or SYMBOLIC_EXPLORATION,
                      assume_unknown_branches=True, **knobs)
    if options.subsume:
        raise ValueError("symbolic replay cannot use subsume: equal "
                         "concrete states may hide different symbolic "
                         "worlds")
    rep = representative_config(config)
    machine = Machine(program)
    tree = enumerate_schedule_tree(machine, rep, exploration=options)
    findings: List[SymbolicFinding] = []
    if _config_is_concrete(config):
        stats = ReplayStats()
        for path in tree.payloads:
            # The recorded path is the replay: same configuration, same
            # schedule, deterministic machine.
            stats.reused += len(path.schedule)
            for obs in secret_observations(path.trace):
                findings.append(SymbolicFinding(obs, path.schedule, (), {}))
        return SymbolicResult(findings, len(tree), tree.truncated, stats,
                              tree.engine_stats)
    runner = SymbolicRunner(program, max_worlds=max_worlds,
                            on_overflow="truncate",
                            strategy=options.strategy, seed=options.seed)
    for index, worlds in runner.run_tree(config, tree):
        schedule = tree.schedules[index]
        for world in worlds:
            leaks = secret_observations(tuple(world.trace))
            if not leaks:
                continue
            model = world.model()
            if model is None:
                continue
            for obs in leaks:
                findings.append(SymbolicFinding(
                    obs, schedule, tuple(world.constraints), model))
    return SymbolicResult(findings, len(tree),
                          tree.truncated or runner.stats.truncated,
                          runner.stats, tree.engine_stats)


def analyze_symbolic(program: Program, config: Config,
                     bound: int = 16, fwd_hazards: bool = False,
                     max_schedules: int = 512,
                     max_worlds: int = 256) -> List[SymbolicFinding]:
    """Pitchfork with its symbolic back end (findings only).

    See :func:`analyze_symbolic_result` for the full result with
    truncation flags and step/reuse accounting.  Because this
    back-compat shape cannot carry the ``truncated`` flag, capped
    coverage is reported as a :class:`RuntimeWarning` — an empty
    findings list from a truncated run must not read as "secure".
    """
    result = analyze_symbolic_result(
        program, config, bound=bound, fwd_hazards=fwd_hazards,
        max_paths=max_schedules, max_worlds=max_worlds)
    if result.truncated:
        import warnings
        warnings.warn(
            "symbolic exploration truncated (max_schedules/max_worlds or "
            "a per-path budget); findings cover only part of the "
            "schedule space — use analyze_symbolic_result() for the "
            "truncation flag", RuntimeWarning, stacklevel=2)
    return result.findings
