"""Uniform litmus-case records.

Every test program in the suites (§4.2: "we create and analyze a set of
Spectre v1 and v1.1 test cases … based off the well-known Kocher
examples") is packaged as a :class:`LitmusCase` carrying:

* the program and a function building its initial configuration(s);
* the figure's *attack schedule*, when the case comes from a paper
  figure, so tests can replay the exact directive sequence;
* ground truth: does it leak sequentially?  speculatively?  does core
  Pitchfork (no aliasing / no indirect-target exploration) detect it,
  and does detection require forwarding-hazard mode?
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import Config
from ..core.directives import Schedule
from ..core.program import Program


@dataclass(frozen=True)
class LitmusCase:
    """One litmus test program with ground-truth expectations."""

    name: str
    variant: str                   #: "v1", "v1.1", "v4", "v2", "ret2spec", …
    description: str
    program: Program
    make_config: Callable[[], Config]
    figure: Optional[str] = None   #: e.g. "Fig 1"
    attack_schedule: Optional[Schedule] = None
    leaks_sequentially: bool = False
    leaks_speculatively: bool = True
    #: Detected by the tool as evaluated in the paper (no aliasing /
    #: indirect-target exploration)?
    detected_by_core_tool: bool = True
    #: Detection requires forwarding-hazard (v4) exploration?
    needs_fwd_hazards: bool = False
    #: Needs the §3.5 aliasing-prediction extension?
    needs_aliasing: bool = False
    #: Extended exploration targets for v2/ret2spec cases.
    jmpi_targets: Tuple[int, ...] = ()
    rsb_targets: Tuple[int, ...] = ()
    rsb_policy: str = "directive"
    #: Smallest speculation bound at which the tool finds the leak
    #: (loop-carried gadgets need deeper windows — §4.2's motivation for
    #: the bound-250 configuration).
    min_bound: int = 12

    def config(self) -> Config:
        return self.make_config()


_SUITES: Dict[str, Callable[[], List[LitmusCase]]] = {}

#: Every suite built once per process, with a name index over them;
#: ``None`` until first use and again after a new registration.  The
#: records are frozen, so every caller shares them; the lists handed
#: out are fresh copies.
_BUILT: Optional[Tuple[Dict[str, Tuple[LitmusCase, ...]],
                       Dict[str, LitmusCase]]] = None
_BUILD_LOCK = threading.Lock()


def suite(name: str):
    """Decorator registering a suite factory under ``name``."""
    def register(fn: Callable[[], List[LitmusCase]]):
        global _BUILT
        _SUITES[name] = fn
        _BUILT = None
        return fn
    return register


def _built() -> Tuple[Dict[str, Tuple[LitmusCase, ...]],
                      Dict[str, LitmusCase]]:
    """The built suites and the name index (built on first use)."""
    global _BUILT
    built = _BUILT
    if built is not None:
        return built
    # Import side effects register the suites on first use.
    from . import aliasing, diffregress, haystack, kocher, spec_rsb, \
        spec_v1, spec_v11, spec_v4  # noqa: F401
    with _BUILD_LOCK:
        if _BUILT is None:
            suites = {name: tuple(factory())
                      for name, factory in sorted(_SUITES.items())}
            index: Dict[str, LitmusCase] = {}
            for cases in suites.values():
                for case in cases:
                    index.setdefault(case.name, case)
            _BUILT = (suites, index)
        return _BUILT


def load_suite(name: str) -> List[LitmusCase]:
    """A registered suite's cases, by suite name."""
    return list(_built()[0][name])


def all_suites() -> Dict[str, List[LitmusCase]]:
    return {name: list(cases) for name, cases in _built()[0].items()}


def all_cases() -> List[LitmusCase]:
    return [case for cases in _built()[0].values() for case in cases]


def find_case(name: str) -> LitmusCase:
    return _built()[1][name]


def expected_repair_status(case: LitmusCase) -> str:
    """Ground-truth outcome of ``repro repair`` on a litmus case.

    * ``"already-secure"`` — nothing to do;
    * ``"repaired"`` — the speculative leak is closed by per-site
      mitigation and the result re-verifies clean;
    * ``"sequential-residual"`` — the case violates *classical*
      constant time (it leaks under the sequential schedule), which no
      speculation barrier can mend: repair removes the
      speculation-introduced leaks and reports the architectural
      residue.
    """
    if case.leaks_sequentially:
        return "sequential-residual"
    if case.leaks_speculatively:
        return "repaired"
    return "already-secure"
