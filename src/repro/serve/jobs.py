"""Job payloads: how a submitted target travels to a warm worker.

A job is described by plain JSON data — a **target spec**, an analysis
name, and an options-override mapping — so the same payload can cross
the RPC socket *and* the process-pool boundary unchanged:

``{"kind": "name", "name": "kocher_01"}``
    a registered litmus case or Table 2 case-study variant, resolved
    exactly as the ``repro analyze`` CLI resolves positional targets
    (variants first, then litmus cases);

``{"kind": "asm", "source": "...", "regs": {"ra": 9}, "pc": 0}``
    raw assembly shipped by value — the client reads the file, the
    daemon never touches the client's filesystem.

Both kinds accept ``"preset": "paper" | "table2"`` for the named
options presets.  :func:`resolve_project` is the single resolution
path shared by the daemon, its pool workers and the CLI;
:func:`run_job` is the module-level pool entry point (picklable under
every multiprocessing start method, like the sharding/manager entry
points it mirrors).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..api.analyses import get_analysis
from ..api.project import AnalysisOptions, Project
from ..api.report import Report

__all__ = ["resolve_project", "run_job", "effective_options",
           "preset_options", "spec_for_name", "spec_for_asm"]


def spec_for_name(name: str, preset: Optional[str] = None) -> Dict[str, Any]:
    spec: Dict[str, Any] = {"kind": "name", "name": name}
    if preset:
        spec["preset"] = preset
    return spec


def spec_for_asm(source: str, *, regs: Optional[Mapping[str, int]] = None,
                 pc: Optional[int] = None, name: str = "<asm>",
                 preset: Optional[str] = None) -> Dict[str, Any]:
    spec: Dict[str, Any] = {"kind": "asm", "source": source, "name": name}
    if regs:
        spec["regs"] = dict(regs)
    if pc is not None:
        spec["pc"] = pc
    if preset:
        spec["preset"] = preset
    return spec


def preset_options(preset: Optional[str]) -> Optional[AnalysisOptions]:
    """The options of a named preset (None: the target's own defaults)."""
    if preset is None:
        return None
    if preset == "paper":
        return AnalysisOptions.paper()
    if preset == "table2":
        return AnalysisOptions.table2()
    raise ValueError(f"unknown preset {preset!r} "
                     f"(expected 'paper' or 'table2')")


def resolve_project(spec: Mapping[str, Any]) -> Project:
    """Build the :class:`Project` a spec describes.

    Mirrors the CLI's target resolution bit-for-bit (same constructors,
    same default options), so a daemon-run analysis starts from exactly
    the state a local ``repro analyze`` would.  Raises ``KeyError`` for
    unknown names and ``ValueError`` for malformed specs.
    """
    kind = spec.get("kind", "name")
    options = preset_options(spec.get("preset"))
    if kind == "asm":
        source = spec.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ValueError("asm spec needs non-empty 'source'")
        return Project.from_asm(
            source,
            regs={str(k): int(v) for k, v in (spec.get("regs") or {}).items()},
            pc=spec.get("pc"), name=spec.get("name", "<asm>"),
            options=options)
    if kind != "name":
        raise ValueError(f"unknown target kind {kind!r} "
                         f"(expected 'name' or 'asm')")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("name spec needs a non-empty 'name'")
    from ..casestudies import all_case_studies
    for study in all_case_studies():
        for variant in study.variants():
            if variant.name == name:
                return Project.from_variant(variant, options=options)
    try:
        return Project.from_litmus(name, options=options)
    except KeyError:
        raise KeyError(f"unknown target {name!r}: not a case-study "
                       f"variant or litmus case "
                       f"(try `repro list`)") from None


def effective_options(project: Project,
                      overrides: Mapping[str, Any]) -> AnalysisOptions:
    """The options the analysis will actually run under — the project's
    defaults with the submitted overrides applied.  This is what cache
    keys are computed from.

    Every :class:`AnalysisOptions` field is overridable, including the
    anytime ``budget_seconds`` and the ``mcts_c``/``mcts_playout`` knobs
    — a budgeted job caches under a distinct store key (budget is part
    of the canonical options), so a truncated anytime result never
    shadows a complete run of the same target."""
    return project.options.with_(**dict(overrides))


def run_job(spec: Mapping[str, Any], analysis: str,
            overrides: Mapping[str, Any]) -> Report:
    """Pool-worker entry point: resolve the target, run the analysis.

    Runs serially inside one warm worker (the daemon routes
    ``shards > 1`` jobs through the resident shard pool instead, so a
    worker never nests a pool of its own).
    """
    project = resolve_project(spec)
    return get_analysis(analysis).run(project, **dict(overrides))
