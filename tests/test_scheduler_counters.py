"""The DT(n) scheduler's work counters (``EngineStats.decisions`` and
``rob_visits``) and the deterministic gate on what the buffer's
scheduler caches save (DESIGN.md, "Scheduler caches")."""

from repro.api import AnalysisOptions, Project, get_analysis
from repro.casestudies import all_case_studies
from repro.core.machine import Machine
from repro.engine import EngineStats
from repro.pitchfork.explorer import Explorer

#: ``rob_visits`` of the donna-c run below under the full-buffer scan
#: the caches replaced (every decision walked the whole reorder buffer
#: from its oldest entry): 620,779 entries over 16,795 decisions.
FULL_SCAN_ROB_VISITS = 620_779


def _two_phase_results(name: str, options: AnalysisOptions):
    """Both phases of the two-phase audit, as explorer results."""
    variant = next(v for study in all_case_studies()
                   for v in study.variants() if v.name == name)
    project = Project.from_variant(variant, options=options)
    analysis = get_analysis("two-phase")
    machine = Machine(project.program, rsb_policy=options.rsb_policy)
    results = []
    for bound, fwd in ((options.bound_no_fwd, False),
                       (options.bound_fwd, True)):
        explorer = Explorer(machine, analysis.exploration(
            options, bound=bound, fwd_hazards=fwd))
        results.append(explorer.explore(
            project.config(), stop_at_first=options.stop_at_first))
    return results


class TestSchedulerCounters:
    def test_snapshot_and_merge_carry_them(self):
        stats = EngineStats(decisions=3, rob_visits=7)
        assert stats.snapshot() == stats
        stats.merge(EngineStats(decisions=2, rob_visits=5))
        assert (stats.decisions, stats.rob_visits) == (5, 12)

    def test_donna_c_visits_a_quarter_of_the_full_scan(self):
        """donna-c ``two-phase`` at phase-1 bound 64 with ``subsume``:
        the same explored work as with the full-buffer scan (8524
        steps, 217 paths in the reported phase, the same 16,795
        decisions), at most a quarter of its 620,779 entry visits."""
        options = AnalysisOptions.paper(subsume=True, bound_no_fwd=64)
        first, second = _two_phase_results("donna-c", options)
        assert first.secure and not first.truncated
        assert not second.truncated and second.secure
        assert (second.applied_steps, second.paths_explored) == (8524, 217)
        decisions = first.engine.decisions + second.engine.decisions
        visits = first.engine.rob_visits + second.engine.rob_visits
        assert decisions == 16_795
        assert visits <= FULL_SCAN_ROB_VISITS // 4
