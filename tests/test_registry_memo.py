"""The target registries are built once per process.

``repro.litmus`` builds every suite on first use and indexes the cases
by name; ``all_case_studies()`` compiles the four Table 2 studies once.
The records are frozen and shared, the lists handed out are fresh, a
suite registered later still shows up, and a target resolved through
the memo has the same fingerprint as one built from its record.
"""

import dataclasses

import pytest

from repro.api import Project
from repro.casestudies import all_case_studies
from repro.litmus import (all_cases, all_suites, find_case, load_suite,
                          registry)
from repro.serve import fingerprint_digest, resolve_project, spec_for_name


def test_find_case_returns_one_record_per_name():
    for case in all_cases():
        found = find_case(case.name)
        assert found is find_case(case.name)
        assert found.name == case.name
    with pytest.raises(KeyError):
        find_case("no_such_case")


def test_handed_out_lists_are_fresh():
    cases = all_cases()
    names = [case.name for case in cases]
    cases.clear()
    assert [case.name for case in all_cases()] == names

    kocher = load_suite("kocher")
    size = len(kocher)
    kocher.pop()
    assert len(load_suite("kocher")) == size

    suites = all_suites()
    suites["kocher"].clear()
    del suites["spec_v1"]
    again = all_suites()
    assert len(again["kocher"]) == size and "spec_v1" in again

    studies = all_case_studies()
    study_names = [study.name for study in studies]
    studies.reverse()
    studies.pop()
    assert [study.name for study in all_case_studies()] == study_names


def test_case_studies_compiled_once():
    first, second = all_case_studies(), all_case_studies()
    assert all(a is b for a, b in zip(first, second))


def test_suite_registered_after_the_build_appears(monkeypatch):
    all_cases()                                    # force the build
    monkeypatch.setattr(registry, "_SUITES", dict(registry._SUITES))
    monkeypatch.setattr(registry, "_BUILT", registry._BUILT)
    probe = dataclasses.replace(find_case("kocher_01"), name="memo_probe")

    @registry.suite("memo-probe")
    def _probe_suite():
        return [probe]

    assert find_case("memo_probe") is probe
    assert [c.name for c in load_suite("memo-probe")] == ["memo_probe"]
    assert "memo-probe" in all_suites()
    assert probe in all_cases()


def test_resolved_fingerprints_match_the_records():
    for case in all_cases():
        spec = spec_for_name(case.name)
        digest = fingerprint_digest(resolve_project(spec))
        assert digest == fingerprint_digest(resolve_project(spec))
        assert digest == fingerprint_digest(Project.from_litmus(case))
    for study in all_case_studies():
        for variant in study.variants():
            spec = spec_for_name(variant.name)
            digest = fingerprint_digest(resolve_project(spec))
            assert digest == fingerprint_digest(resolve_project(spec))
            assert digest == fingerprint_digest(
                Project.from_variant(variant))
