"""Known pitchfork/sps disagreements on seeded random programs.

Two loop-free random programs of ``repro.verify.generators`` (the
generator and seeds of the benchmark's ``random-xcheck`` workload)
where both backends finish complete runs but flag different
observation sets: on random-1-442 pitchfork flags ``read 68_secret``
while sps also flags ``fwd 68_secret``; on random-2-402 sps also flags
``read 64_secret``.  One backend is wrong.  The agreement tests are
strict expected failures, so the day a fix makes them pass the suite
says so.
"""

import random

import pytest

from repro.api import AnalysisOptions, Project
from repro.verify.generators import random_config, random_program

PROGRAMS = [(1, 442), (2, 402)]
IDS = [f"random-{seed}-{i}" for seed, i in PROGRAMS]


def _both(seed: int, i: int):
    rng = random.Random(seed * 1_000_003 + i)
    program = random_program(rng, length=10)
    config = random_config(rng)
    project = Project(program, config, name=f"random-{seed}-{i}",
                      options=AnalysisOptions(bound=12, fwd_hazards=True))
    return (project.analyses.pitchfork(stop_at_first=False),
            project.analyses.sps(stop_at_first=False))


def _flagged(report):
    return {v["observation"] for v in report.violations}


@pytest.mark.parametrize("seed,i", PROGRAMS, ids=IDS)
def test_both_backends_complete(seed, i):
    """The disagreement is between two complete runs, not a coverage
    artefact."""
    pitchfork, sps = _both(seed, i)
    assert not pitchfork.truncated and not sps.truncated
    assert _flagged(pitchfork) and _flagged(sps)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known backend disagreement (see module doc)")
@pytest.mark.parametrize("seed,i", PROGRAMS, ids=IDS)
def test_backends_flag_the_same_observations(seed, i):
    pitchfork, sps = _both(seed, i)
    assert _flagged(pitchfork) == _flagged(sps)
