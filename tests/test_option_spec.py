"""One exploration-option spec.

``ExplorationOptions`` declares the exploration knobs (defaults and
validation); ``AnalysisOptions.exploration`` is the only mapping onto
it; every entry point takes the knobs from there.  These tests pin the
shared defaults, the store keys the refactor must not move, the
``*_ignored`` notices derived from each analysis's ``ignores``, and
the cross-check asking the main run's question (same knobs, complete
sides only count as agreement).
"""

import json

import pytest

from repro.api import AnalysisOptions, Project
from repro.api.analyses import NOTICED_KNOBS, get_analysis
from repro.api.cli import _option_overrides, build_parser, main
from repro.core import Config, Machine, Memory
from repro.litmus import find_case
from repro.pitchfork import (ExplorationOptions, analyze,
                             analyze_symbolic_result,
                             enumerate_schedule_tree, enumerate_schedules)
from repro.serve.jobs import resolve_project
from repro.serve.keys import fingerprint_digest, store_key
from repro.sps.diff import DiffRecord, compare


class TestSharedDefaults:
    def test_analysis_defaults_are_exploration_defaults(self):
        assert AnalysisOptions().exploration() == ExplorationOptions()

    def test_exploration_maps_fields_and_overrides(self):
        options = AnalysisOptions.table2(subsume=True, jmpi_targets=[3],
                                         strategy="bfs")
        explore = options.exploration(bound=7)
        assert explore.bound == 7 and explore.subsume
        assert explore.jmpi_targets == (3,) and explore.strategy == "bfs"
        assert explore.max_paths == options.max_paths

    def test_validation_lives_in_exploration_options(self):
        with pytest.raises(ValueError, match="strategy"):
            ExplorationOptions(strategy="dijkstra")
        with pytest.raises(ValueError, match="bound must be positive"):
            ExplorationOptions(bound=0)
        # AnalysisOptions validates the shared knobs through it.
        with pytest.raises(ValueError, match="max_steps must be positive"):
            AnalysisOptions(max_steps=0)
        with pytest.raises(ValueError, match="prune"):
            AnalysisOptions(prune="most")

    def test_rsb_policy_is_the_machines(self):
        from repro.core.machine import RSB_POLICIES
        for policy in RSB_POLICIES:
            AnalysisOptions(rsb_policy=policy)
        with pytest.raises(ValueError, match="rsb_policy"):
            AnalysisOptions(rsb_policy="bogus")


class TestKnobKeywords:
    def setup_method(self):
        self.case = find_case("kocher_01")

    def test_analyze_keywords_equal_an_options_object(self):
        by_kw = analyze(self.case.program, self.case.make_config(),
                        bound=8, prune="full", stop_at_first=False)
        by_obj = analyze(self.case.program, self.case.make_config(),
                         exploration=ExplorationOptions(bound=8,
                                                        prune="full"),
                         stop_at_first=False)
        assert by_kw.bound == by_obj.bound == 8
        assert by_kw.violations == by_obj.violations
        assert by_kw.pruning == by_obj.pruning

    def test_unknown_knob_raises_type_error(self):
        machine = Machine(self.case.program)
        with pytest.raises(TypeError):
            analyze(self.case.program, self.case.make_config(), bond=8)
        with pytest.raises(TypeError):
            enumerate_schedules(machine, self.case.make_config(), bond=8)
        with pytest.raises(TypeError):
            enumerate_schedule_tree(machine, self.case.make_config(),
                                    bond=8)

    def test_enumeration_refuses_a_budget(self):
        machine = Machine(self.case.program)
        with pytest.raises(ValueError, match="budget_seconds"):
            enumerate_schedules(machine, self.case.make_config(), bound=8,
                                budget_seconds=1.0)

    def test_symbolic_back_end_refuses_subsume(self):
        with pytest.raises(ValueError, match="subsume"):
            analyze_symbolic_result(self.case.program,
                                    self.case.make_config(), bound=8,
                                    subsume=True)


#: ``store_key`` digests computed before the option spec was unified:
#: a refactor of the options classes must not move any stored result.
GOLDEN_KEYS = {
    ("kocher_01", "pitchfork", "default"):
        "d4223e241d5579ef3aa814a2b07bd2c1abbd4c46587c260481566451a1b3ce8a",
    ("kocher_01", "pitchfork", "table2"):
        "54ed7b38994bcd6c3369e8ac07d09cbacb88e9467ae50d22a5ad6b437bf715bb",
    ("kocher_01", "pitchfork", "paper"):
        "d4223e241d5579ef3aa814a2b07bd2c1abbd4c46587c260481566451a1b3ce8a",
    ("kocher_01", "pitchfork", "table2-subsume"):
        "fa6eb7875a9a58d2ee85d708be8c676779f3a2ee9d3a07638ecbf455828dd5cb",
    ("v4_fig7", "two-phase", "default"):
        "589cea752feebad4dad9658aa8a66622e872320ccb7b7229ea17c846853d208b",
    ("v4_fig7", "two-phase", "table2"):
        "fda3ba242ac5bb0475af64c9c67d3693b6245c8962021588be009726e5d0a926",
    ("v4_fig7", "two-phase", "table2-subsume"):
        "fb96970de338d2c85ca6cd2850daa724b22c8112a321eac07ed5cffba5fa923e",
    ("secretbox-fact", "two-phase", "default"):
        "34815f94a407f5e8ae5fee1b8f7ba73e1959b86235eedcd071a259871bd836e5",
    ("secretbox-fact", "two-phase", "table2"):
        "fe3a112f499776d9856a64fd30d470c7612f1728ff58180fd33a751c9a4ea6a3",
    ("secretbox-fact", "two-phase", "table2-subsume"):
        "cc21f6b58bb1cbf07e22e79e0a664195c9fe0a6ef9e216b18b91f87b1215c51f",
    ("donna-c", "pitchfork", "paper"):
        "06e7106cd0f35c815c59b109dbac651a28d45c45e595e0a653c3c56b26f2441a",
    ("donna-c", "pitchfork", "table2-subsume"):
        "2372f29ae008845f1b83e7ef95a6981e277c3a52542aaeace162c06b794f90df",
}

PRESETS = {
    "default": AnalysisOptions,
    "table2": AnalysisOptions.table2,
    "paper": AnalysisOptions.paper,
    "table2-subsume": lambda: AnalysisOptions.table2(subsume=True),
}


@pytest.mark.parametrize("target,analysis,preset", sorted(GOLDEN_KEYS))
def test_store_keys_are_unchanged(target, analysis, preset):
    project = resolve_project({"kind": "name", "name": target})
    key = store_key(analysis, fingerprint_digest(project), PRESETS[preset]())
    assert key == GOLDEN_KEYS[(target, analysis, preset)]


class TestIgnoredNotices:
    def test_every_declared_knob_is_a_noticed_knob(self):
        from repro.api.analyses import available_analyses
        for name in available_analyses():
            assert set(get_analysis(name).ignores) <= set(NOTICED_KNOBS)

    # Notices the derivation added: these knobs were silently dropped
    # before their analysis declared them ignored.
    NEW = {
        "sct": {"strategy": "bfs", "shards": 2, "subsume": True,
                "budget_seconds": 5.0},
        "metatheory": {"strategy": "bfs", "shards": 2, "prune": "full",
                       "subsume": True, "budget_seconds": 5.0,
                       "telemetry": True},
    }

    @pytest.mark.parametrize("analysis", sorted(NEW))
    def test_newly_surfaced_notices(self, analysis):
        knobs = self.NEW[analysis]
        project = Project.from_litmus("kocher_01")
        options = {"sct_bound": 4, "experiments": 1}
        report = project.run(analysis, **options, **knobs)
        for name, value in knobs.items():
            key = ("budget_ignored" if name == "budget_seconds"
                   else f"{name}_ignored")
            assert report.details[key] == value, key

    def test_sct_subsume_flag_is_reported(self, capsys):
        main(["analyze", "kocher_01", "-a", "sct", "--subsume", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["details"]["subsume_ignored"] is True

    def test_defaults_raise_no_notice(self):
        report = Project.from_litmus("kocher_01").run("sps")
        assert not [k for k in report.details if k.endswith("_ignored")]

    def test_ignored_knobs_are_held_at_default_in_the_run(self):
        sct = get_analysis("sct")
        options = AnalysisOptions(strategy="bfs", subsume=True, prune="full")
        explore = sct.exploration(options)
        assert explore.strategy == "dfs" and explore.subsume is False
        assert explore.prune == "full"  # acted on, so passed through


class TestCliOverrides:
    def test_every_flag_maps_to_its_field(self):
        args = build_parser().parse_args(
            ["repair", "kocher_01", "--aliasing", "--max-rounds", "3",
             "--no-shrink", "--bound", "9"])
        overrides = _option_overrides(args)
        assert set(overrides) == set(AnalysisOptions.__dataclass_fields__)
        assert overrides["explore_aliasing"] is True
        assert overrides["max_repair_rounds"] == 3
        assert overrides["shrink"] is False and overrides["bound"] == 9
        assert overrides["strategy"] is None

    def test_unknown_target_exits_3_naming_it(self, capsys):
        assert main(["analyze", "no_such_target"]) == 3
        assert "no_such_target" in capsys.readouterr().err


class TestCrossCheckQuestion:
    def test_subsumed_table2_run_is_complete_and_agrees(self):
        project = resolve_project({"kind": "name", "name": "secretbox-fact"})
        record = compare(project.program, project.config(),
                         AnalysisOptions.table2(subsume=True,
                                                stop_at_first=False),
                         name=project.name)
        assert record.pf_complete and record.sps_complete
        assert record.agree and record.status == "agree"

    def test_cross_check_honours_shards(self):
        case = find_case("kocher_01")
        options = AnalysisOptions.for_case(case, stop_at_first=False)
        serial = compare(case.program, case.config(), options)
        sharded = compare(case.program, case.config(),
                          options.with_(shards=2))
        assert sharded.agree and sharded.pf_obs == serial.pf_obs

    def test_equal_but_truncated_is_not_agreement(self):
        record = DiffRecord(name="t", program=find_case("kocher_01").program,
                            config=Config.initial({}, Memory(), pc=1),
                            options=AnalysisOptions(), pf_obs=(),
                            sps_obs=(), pf_complete=False, sps_complete=True,
                            pf_wall=0.0, sps_wall=0.0)
        assert not record.agree and not record.disagree
        assert record.explained and record.status == "explained-budget"
        assert record.section()["agree"] is False

    def test_cli_reports_an_incomplete_side(self, capsys):
        code = main(["analyze", "kocher_08", "--max-steps", "10",
                     "--cross-check", "--check", "--json"])
        section = json.loads(capsys.readouterr().out)["cross_check"]
        assert code == 2
        assert section["pitchfork_observations"] == \
            section["sps_observations"]
        assert section["agree"] is False
        assert section["classification"] == "explained-budget"
