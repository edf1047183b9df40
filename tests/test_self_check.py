"""The simulated LLM's self-check asks one incremental oracle session per
completion; its verdicts must be the from-scratch Analyzer's.

Differential: every ARepair-suite spec at seed 0, MockGPT's top-ranked
proposals at the reduced scope, session verdict against a from-scratch
verdict.  The suite's ranked proposals include field-multiplicity mutants,
whose signatures diverge from the base module, so the fallback runs too.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.alloy.resolver import resolve_module
from repro.analyzer.session import OracleSession
from repro.benchmarks.cache import load_benchmark
from repro.experiments.executor import ShardTask, execute_shard
from repro.llm import mock_gpt
from repro.llm.mock_gpt import (
    GPT4_PROFILE,
    MockGPT,
    _reduce_scopes,
    _scratch_verifies,
    _SelfCheck,
)
from repro.repair.registry import MULTI_ROUND, SINGLE_ROUND

SCOPE = GPT4_PROFILE.self_check_scope


@pytest.fixture(scope="module")
def suite():
    return load_benchmark("arepair", seed=0)


def ranked_proposals(module):
    """The proposals one confident completion would self-check, in order."""
    gpt = MockGPT(seed=0, profile=GPT4_PROFILE)
    info = resolve_module(module)
    rng = random.Random(0)
    proposals = gpt._enumerate_proposals(module, info, rng)
    ranked = gpt._rank_proposals(module, info, proposals, {}, [], rng)
    return ranked[: GPT4_PROFILE.self_check_candidates]


def counter_totals(registry) -> dict[str, float]:
    totals: dict[str, float] = {}
    for key, value in registry.snapshot()["counters"].items():
        name = obs.parse_key(key)[0]
        totals[name] = totals.get(name, 0) + value
    return totals


class TestSessionVerdictsEqualScratch:
    def test_ranked_proposals_across_the_suite(self, suite):
        registry = obs.MetricsRegistry()
        checked = agreed_true = 0
        with obs.scope(obs.Tracer(), registry):
            for spec in suite:
                base = parse_module(spec.faulty_source)
                base_text = print_module(base)
                ranked = ranked_proposals(base)
                texts = [print_module(m.module) for m in ranked]
                checker = _SelfCheck(base, SCOPE)
                for mutant in ranked:
                    want = _scratch_verifies(_reduce_scopes(mutant.module, SCOPE))
                    got = checker.verifies(mutant.module)
                    assert got == want, (spec.spec_id, mutant.description)
                    checked += 1
                    agreed_true += got
                assert print_module(base) == base_text, spec.spec_id
                assert [print_module(m.module) for m in ranked] == texts
        totals = counter_totals(registry)
        assert checked == 12 * len(suite)
        assert 0 < agreed_true < checked
        # Diverging signatures (field-multiplicity mutants) took the fallback.
        assert totals["oracle.session.fallbacks"] > 0
        assert totals["oracle.session.checks"] > 0

    def test_a_failing_session_never_changes_a_verdict(self, suite, monkeypatch):
        spec = next(s for s in suite if s.spec_id == "fsm#0001")
        base = parse_module(spec.faulty_source)
        ranked = ranked_proposals(base)
        want = [
            _scratch_verifies(_reduce_scopes(m.module, SCOPE)) for m in ranked
        ]
        calls = []

        def broken(self, module):
            calls.append(module)
            raise RuntimeError("session machinery failure")

        monkeypatch.setattr(OracleSession, "evaluate", broken)
        checker = _SelfCheck(base, SCOPE)
        assert [checker.verifies(m.module) for m in ranked] == want
        # The first failure disables the session for the completion.
        assert len(calls) == 1


class TestLlmShardCounters:
    """The self-check is not an oracle query: a traced LLM shard counts the
    same oracle calls, dedup replays and requests whether the self-check
    asks the session or solves from scratch."""

    TECHNIQUES = tuple(SINGLE_ROUND + MULTI_ROUND)

    def run(self, spec):
        result = execute_shard(
            ShardTask(spec=spec, techniques=self.TECHNIQUES, seed=0, trace=True)
        )
        registry = obs.MetricsRegistry()
        registry.merge(result.metrics)
        cells = {
            technique: (o.rep, o.tm, o.sm, o.status)
            for technique, o in result.outcomes.items()
        }
        return cells, counter_totals(registry)

    def test_session_and_scratch_self_checks_count_alike(
        self, suite, monkeypatch
    ):
        spec = next(s for s in suite if s.spec_id == "fsm#0001")
        cells, totals = self.run(spec)
        assert totals.get("analysis.dedup_hits", 0) == 0
        assert totals["repair.oracle_calls"] == 8
        assert totals["llm.requests"] == 8

        def unavailable(info):
            raise RuntimeError("no session")

        monkeypatch.setattr(mock_gpt, "OracleSession", unavailable)
        scratch_cells, scratch_totals = self.run(spec)
        assert scratch_cells == cells
        for name in ("repair.oracle_calls", "llm.requests", "analysis.dedup_hits"):
            assert totals.get(name, 0) == scratch_totals.get(name, 0), name
        # Only the session arm's self-checks are session checks.
        assert (
            totals["oracle.session.checks"]
            > scratch_totals.get("oracle.session.checks", 0)
        )
