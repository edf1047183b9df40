"""The solver's trajectory on the corpus is pinned, bit for bit.

Speed-ups of CNF emission, unit propagation or AST copying must not change
a single clause, decision or verdict: every instance, counterexample, chaos
fault point and matrix cell downstream depends on the exact search.  The
pinned trajectory holds clause digests, per-solve counters, the first
instances of every corpus command and one OracleSession stream.  The
fixture was recorded by ``tests/make_sat_trajectory.py`` (see its docstring
for what each field pins and how to regenerate it).
"""

import json

import pytest

from repro.analyzer.analyzer import Analyzer
from repro.benchmarks.models import all_models

from .make_sat_trajectory import FIXTURE, command_trajectory, session_trajectory

PINNED = json.loads(FIXTURE.read_text())


def test_fixture_covers_the_corpus():
    assert sorted(PINNED["corpus"]) == sorted(m.name for m in all_models())


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_command_trajectories_match(model):
    analyzer = Analyzer(model.source)
    expected = PINNED["corpus"][model.name]
    assert len(analyzer.info.commands) == len(expected)
    for command, pinned in zip(analyzer.info.commands, expected):
        assert command_trajectory(analyzer, command) == pinned, (
            model.name,
            command.target,
        )


def test_oracle_session_trajectory_matches():
    sources = PINNED["session_mutants"]
    assert len(sources) == 100
    assert session_trajectory(sources) == PINNED["session"]
