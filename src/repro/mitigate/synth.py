"""Counterexample-guided mitigation synthesis: the repair→re-verify loop.

The algorithm is the standard CEGIS shape, with Pitchfork as the
verifier:

1. **Verify** — run :func:`repro.pitchfork.analyze` (inheriting the
   caller's bound / hazard / strategy / sharding knobs,
   ``stop_at_first=False`` so every leak in range is visible).
2. **Filter** — drop violations whose observation the *sequential*
   execution already produces: those are architectural leaks
   (the program is not sequentially constant-time; Corollary B.10's
   hypothesis fails) and no speculation barrier can remove them.  They
   are reported as ``sequential`` residue, never silently "repaired".
3. **Localize** — attribute the remaining transient violations to
   program points (:mod:`repro.mitigate.localize`).
4. **Propose** — protect each new leak point: SLH masking for
   v1-style loads under a mispredicted branch (policy ``slh``/
   ``auto``), a spliced fence otherwise.  Every proposal must preserve
   the program's sequential semantics (checked by replaying the
   canonical sequential schedule — Definition B.3 — and comparing
   traces and final architectural state); a proposal that breaks them
   is rolled back and replaced by a fence.
5. Repeat until the verifier finds nothing transient, then **shrink**:
   greedily remove mitigations youngest-first (fences and redundant SLH
   masks alike), keeping a removal only when re-verification stays
   clean — delta-debugging down to a *locally minimal* placement
   (every remaining mitigation is load-bearing: removing any single
   one re-introduces a leak).  The shrink invariant is that security
   is re-established by the verifier after every removal, so no
   reasoning about mitigation interaction is needed.

The result carries a machine-checkable :attr:`RepairResult.certificate`
— the repaired program as re-assembleable source plus the claims made
about it — which :func:`verify_certificate` re-checks from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..asm import assemble, to_source
from ..core.config import Config
from ..core.errors import ReproError
from ..core.machine import Machine
from ..core.observations import secret_observations
from ..core.program import Program
from ..core.sequential import run_sequential
from ..ctcomp.passes import count_fences, insert_fences
from ..pitchfork import AnalysisReport, analyze
from .localize import ViolationSite, localize_all
from .passes import (AppliedMitigation, MitigationError, apply_fence,
                     apply_slh, remove_fence, remove_slh)

#: Statuses a repair can end in.
REPAIR_STATUSES = ("already-secure", "repaired", "sequential-residual",
                   "gave-up")


@dataclass(frozen=True)
class RepairStep:
    """One accepted proposal of the synthesis loop."""

    site: ViolationSite
    applied: AppliedMitigation
    round: int

    def to_dict(self) -> Dict[str, object]:
        d = self.applied.to_dict()
        d.update({"round": self.round, "cause": self.site.cause,
                  "observation": self.site.observation})
        return d


@dataclass
class RepairResult:
    """Outcome of one synthesis run."""

    name: str
    status: str                     #: one of :data:`REPAIR_STATUSES`
    program: Program                #: the repaired program
    original: Program
    steps: Tuple[RepairStep, ...] = ()
    final_report: Optional[AnalysisReport] = None
    rounds: int = 0
    verifications: int = 0          #: full Pitchfork re-runs performed
    fences_added: int = 0
    slh_sites: int = 0
    shrink_removed: int = 0
    #: Fences the blanket Fig 8 pass would have added — the baseline the
    #: minimal placement is measured against.
    blanket_fences: int = 0
    #: Sequential machine steps: original, repaired, and the difference
    #: (the mitigation's architectural overhead).
    sequential_steps: int = 0
    repaired_sequential_steps: int = 0
    #: Observations the sequential execution leaks on its own (empty for
    #: sequentially constant-time programs).
    sequential_leaks: Tuple[str, ...] = ()
    semantics_preserved: bool = True
    #: Why each equivalence check failed (one line per rejected SLH
    #: proposal or semantics-breaking accepted fence).  Empty iff
    #: every proposal replayed cleanly; ``semantics_preserved`` is
    #: False exactly when an *accepted* mitigation appears here.
    semantics_failures: Tuple[str, ...] = ()
    wall_time: float = 0.0
    #: Verifier machine-step accounting summed over every re-run.
    states_stepped: int = 0
    states_reused: int = 0

    @property
    def secure(self) -> bool:
        """No transient leak remains (sequential residue may)."""
        return self.status in ("already-secure", "repaired",
                               "sequential-residual")

    @property
    def overhead_steps(self) -> int:
        return self.repaired_sequential_steps - self.sequential_steps

    @property
    def certificate(self) -> Dict[str, object]:
        """A machine-checkable summary: the repaired program as source
        text plus every claim — re-check it with
        :func:`verify_certificate`."""
        return {
            "name": self.name,
            "status": self.status,
            "program": to_source(self.program),
            "base": min(self.program.points(), default=1),
            "entry": self.program.entry,
            "steps": [s.to_dict() for s in self.steps],
            "fences_added": self.fences_added,
            "slh_sites": self.slh_sites,
            "shrink_removed": self.shrink_removed,
            "blanket_fences": self.blanket_fences,
            "overhead_steps": self.overhead_steps,
            "sequential_leaks": list(self.sequential_leaks),
            "semantics_preserved": self.semantics_preserved,
            "semantics_failures": list(self.semantics_failures),
            "verifications": self.verifications,
        }


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs of the repair loop (the verifier's knobs ride along in
    ``analyze_kwargs``)."""

    policy: str = "auto"            #: "fence" | "slh" | "auto"
    max_rounds: int = 16
    shrink: bool = True
    #: Retire budget for the sequential baseline/overhead runs.
    max_retires: int = 20_000

    def __post_init__(self):
        if self.policy not in ("fence", "slh", "auto"):
            raise ValueError(f"policy must be fence|slh|auto, "
                             f"got {self.policy!r}")
        if self.max_rounds <= 0:
            raise ValueError("max_rounds must be positive")


def _sequential_profile(program: Program, config: Config, rsb_policy: str,
                        max_retires: int) -> Tuple[Set[str], int, object]:
    """Secret observations + step count + result of the canonical
    sequential schedule."""
    machine = Machine(program, rsb_policy=rsb_policy)
    result = run_sequential(machine, config, max_retires=max_retires)
    leaks = {repr(o) for o in secret_observations(result.trace)}
    return leaks, len(result.schedule), result


def _preserves_semantics(base_result, candidate: Program, config: Config,
                         rsb_policy: str,
                         max_retires: int) -> Optional[str]:
    """Sequential equivalence: same observation trace, same final
    architectural state (original registers and all of memory).

    Returns None when the candidate is equivalent, else a short reason
    string.  Only the machine's own failures (:class:`ReproError` —
    a stuck candidate, an ill-formed splice) count as "not
    equivalent"; anything else is a synthesizer bug and propagates.
    """
    machine = Machine(candidate, rsb_policy=rsb_policy)
    try:
        cand = run_sequential(machine, config.with_(pc=candidate.entry),
                              max_retires=max_retires)
    except ReproError as exc:
        return f"candidate does not run sequentially: {exc}"
    if cand.trace != base_result.trace:
        return "observation trace diverges"
    a, b = base_result.final, cand.final
    for reg, value in a.regs.items():
        if b.regs.get(reg) != value:
            return f"final value of register {reg.name} diverges"
    addrs = set(a.mem.addresses()) | set(b.mem.addresses())
    for addr in addrs:
        if a.mem.read(addr) != b.mem.read(addr):
            return f"final memory at {addr:#x} diverges"
    return None


class MitigationSynthesizer:
    """Drives the repair→re-verify loop for one target."""

    def __init__(self, program: Program, config: Config, *,
                 name: str = "<program>",
                 options: Optional[SynthesisOptions] = None,
                 rsb_policy: str = "directive",
                 **analyze_kwargs):
        self.original = program
        self.config = config
        self.name = name
        self.options = options or SynthesisOptions()
        self.rsb_policy = rsb_policy
        analyze_kwargs.pop("stop_at_first", None)
        self.analyze_kwargs = analyze_kwargs
        self._verifications = 0
        self._stepped = 0
        self._reused = 0
        self._shrunk = 0
        self._slh_done: Set[int] = set()
        self._semantics_failures: List[str] = []

    # -- the verifier --------------------------------------------------------

    def _verify(self, program: Program) -> AnalysisReport:
        report = analyze(program, self.config.with_(pc=program.entry),
                         name=self.name, stop_at_first=False,
                         rsb_policy=self.rsb_policy, **self.analyze_kwargs)
        self._verifications += 1
        self._stepped += report.states_stepped
        self._reused += report.states_reused
        return report

    def _transient(self, report: AnalysisReport, seq_leaks: Set[str]):
        """Violations not already exhibited by sequential execution."""
        return [v for v in report.violations
                if repr(v.observation) not in seq_leaks]

    # -- proposals -----------------------------------------------------------

    def _propose(self, program: Program, site: ViolationSite,
                 base_seq
                 ) -> Optional[Tuple[Program, AppliedMitigation, bool]]:
        """One mitigation for one site; returns (program, applied,
        semantics_ok), or None when nothing applies (a localization
        fallback blamed a point holding no repairable instruction —
        the loop treats the site as unprogressable).  SLH is tried
        first when the policy and the site shape allow it, with a fence
        as the fallback.

        Masking targets the *taint source* load when the site records
        one: the flagged (transmitting) load's address label is a join
        over its operands, which a mask can never lower — only zeroing
        the access load's index actually strips the secret from the
        transient data flow.
        """
        opts = self.options
        want_slh = (opts.policy in ("slh", "auto")
                    and site.branch_pp is not None
                    and site.cause in ("v1", "v1.1"))
        if want_slh:
            for load_pp in (site.taint_pp, site.leak_pp):
                if load_pp is None or load_pp in self._slh_done:
                    continue
                try:
                    candidate, applied = apply_slh(program, site, load_pp)
                except MitigationError:
                    continue
                why = _preserves_semantics(base_seq, candidate, self.config,
                                           self.rsb_policy, opts.max_retires)
                if why is None:
                    self._slh_done.add(load_pp)
                    return candidate, applied, True
                self._semantics_failures.append(
                    f"slh at point {load_pp} (site {site.leak_pp}, "
                    f"rejected): {why}")
        try:
            candidate, applied = apply_fence(program, site.leak_pp)
        except MitigationError:
            return None
        why = _preserves_semantics(base_seq, candidate, self.config,
                                   self.rsb_policy, opts.max_retires)
        if why is not None:
            self._semantics_failures.append(
                f"fence at point {site.leak_pp} (accepted): {why}")
        return candidate, applied, why is None

    # -- the loop ------------------------------------------------------------

    def run(self) -> RepairResult:
        t0 = time.perf_counter()
        opts = self.options
        seq_leaks, seq_steps, base_seq = _sequential_profile(
            self.original, self.config, self.rsb_policy, opts.max_retires)

        current = self.original
        steps: List[RepairStep] = []
        guarded: Set[int] = set()     # leak points already fenced
        semantics_ok = True
        status = "gave-up"
        report = None
        rounds = 0

        for rounds in range(1, opts.max_rounds + 1):
            report = self._verify(current)
            residual = self._transient(report, seq_leaks)
            if not residual:
                if not steps:
                    status = ("already-secure" if report.secure
                              else "sequential-residual")
                else:
                    status = ("repaired" if report.secure
                              else "sequential-residual")
                break
            machine = Machine(current, rsb_policy=self.rsb_policy)
            sites = localize_all(machine,
                                 self.config.with_(pc=current.entry),
                                 residual)
            progressed = False
            for site in sites:
                if site.leak_pp in guarded:
                    # A fence is already in front of this point and the
                    # leak persists: nothing stronger to offer.
                    continue
                proposal = self._propose(current, site, base_seq)
                if proposal is None:
                    continue
                candidate, applied, ok = proposal
                current = candidate
                semantics_ok = semantics_ok and ok
                if applied.policy == "fence":
                    guarded.add(site.leak_pp)
                steps.append(RepairStep(site, applied, rounds))
                progressed = True
            if not progressed:
                status = "gave-up"
                break
        else:
            report = self._verify(current)
            if not self._transient(report, seq_leaks):
                status = "repaired" if report.secure else "sequential-residual"

        if opts.shrink and steps and \
                status in ("repaired", "sequential-residual"):
            current, steps, shrunk_report = self._shrink(current, steps,
                                                         seq_leaks)
            if shrunk_report is not None:
                report = shrunk_report

        repaired_steps = seq_steps
        if steps:
            machine = Machine(current, rsb_policy=self.rsb_policy)
            result = run_sequential(machine,
                                    self.config.with_(pc=current.entry),
                                    max_retires=opts.max_retires)
            repaired_steps = len(result.schedule)

        live = tuple(steps)
        return RepairResult(
            name=self.name, status=status, program=current,
            original=self.original, steps=live, final_report=report,
            rounds=rounds, verifications=self._verifications,
            fences_added=count_fences(current) - count_fences(self.original),
            slh_sites=sum(1 for s in live if s.applied.policy == "slh"),
            shrink_removed=self._shrunk,
            blanket_fences=(count_fences(insert_fences(self.original))
                            - count_fences(self.original)),
            sequential_steps=seq_steps,
            repaired_sequential_steps=repaired_steps,
            sequential_leaks=tuple(sorted(seq_leaks)),
            semantics_preserved=semantics_ok,
            semantics_failures=tuple(self._semantics_failures),
            wall_time=time.perf_counter() - t0,
            states_stepped=self._stepped, states_reused=self._reused)

    def _shrink(self, program: Program, steps: List[RepairStep],
                seq_leaks: Set[str]
                ) -> Tuple[Program, List[RepairStep],
                           Optional[AnalysisReport]]:
        """Delta-debugging pass: drop mitigations that turn out to be
        redundant (security re-established by the verifier after every
        removal — the shrink invariant)."""
        live = list(steps)
        last_clean = None
        for step in reversed(steps):
            if step.applied.policy == "fence":
                candidate = remove_fence(program, step.applied)
            else:
                candidate = remove_slh(program, step.applied)
            if candidate is None:
                continue
            report = self._verify(candidate)
            if report.truncated:
                continue    # partial coverage must not license a removal
            if not self._transient(report, seq_leaks):
                program = candidate
                live.remove(step)
                self._shrunk += 1
                last_clean = report
        return program, live, last_clean


def repair(program: Program, config: Config, *,
           name: str = "<program>",
           policy: str = "auto",
           max_rounds: int = 16,
           shrink: bool = True,
           rsb_policy: str = "directive",
           **analyze_kwargs) -> RepairResult:
    """Synthesize a minimal mitigation for ``program``.

    ``analyze_kwargs`` are forwarded to :func:`repro.pitchfork.analyze`
    for every verification run: ``exploration`` (an
    :class:`~repro.pitchfork.ExplorationOptions`), ``shards``, or any
    exploration knob as a keyword.
    """
    synthesizer = MitigationSynthesizer(
        program, config, name=name,
        options=SynthesisOptions(policy=policy, max_rounds=max_rounds,
                                 shrink=shrink),
        rsb_policy=rsb_policy, **analyze_kwargs)
    return synthesizer.run()


def verify_certificate(certificate: Dict[str, object], config: Config, *,
                       rsb_policy: str = "directive",
                       max_retires: int = 20_000,
                       original: Optional[Program] = None,
                       **analyze_kwargs) -> bool:
    """Re-check a repair certificate from scratch.

    Re-assembles the embedded source, re-runs the verifier, and — when
    the original program is supplied — re-checks sequential
    equivalence.  Returns True iff every claim holds.
    """
    program = assemble(str(certificate["program"]),
                       base=int(certificate.get("base", 1)))
    if program.entry != certificate.get("entry", program.entry):
        return False
    report = analyze(program, config.with_(pc=program.entry),
                     stop_at_first=False, rsb_policy=rsb_policy,
                     **analyze_kwargs)
    allowed = set(certificate.get("sequential_leaks", ()))
    residual = [v for v in report.violations
                if repr(v.observation) not in allowed]
    if residual or report.truncated:
        return False
    if original is not None and certificate.get("semantics_preserved"):
        machine = Machine(original, rsb_policy=rsb_policy)
        base = run_sequential(machine, config.with_(pc=original.entry),
                              max_retires=max_retires)
        if _preserves_semantics(base, program, config, rsb_policy,
                                max_retires) is not None:
            return False
    return True
