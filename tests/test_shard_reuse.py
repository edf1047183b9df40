"""Within one shard, each answer is computed once and means the same.

``execute_shard`` installs one :func:`~repro.analysis.canon.verdict_sharing`
scope per shard.  Besides oracle verdicts it carries the truth's parse and
suite enumerations, AUnit verdicts per printed candidate, and REP/TM/SM
per final text.  These tests pin that the sharing is transparent: a
shard's cells equal each tool run alone and ``run_spec`` outside any
scope; suites drawn from a shared enumeration equal fresh ones; and
nothing is carried from one shard to the next.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.canon import verdict_sharing
from repro.analyzer.analyzer import Analyzer
from repro.benchmarks.cache import load_benchmark
from repro.experiments import runner
from repro.experiments.executor import ShardTask, execute_shard
from repro.experiments.runner import run_spec
from repro.metrics.rep import truth_command_outcomes
from repro.obs.export import render_profile, trace_data_from_snapshot
from repro.repair.registry import TRADITIONAL
from repro.testing.generation import generate_suite

SPEC_IDS = ("addr#0000", "cd#0000", "fsm#0001")
"""Cheap specs on which every kind of reuse happens at seed 0: tools
return equal final texts, ICEBAR's inner ARepair re-scores ARepair's
candidates, and ICEBAR's suite extends ARepair's enumeration."""


@pytest.fixture(scope="module")
def specs():
    by_id = {spec.spec_id: spec for spec in load_benchmark("arepair", seed=0)}
    return [by_id[spec_id] for spec_id in SPEC_IDS]


def cells(result):
    return {
        technique: (o.rep, o.tm, o.sm, o.status)
        for technique, o in result.outcomes.items()
    }


def counter_totals(snapshot: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for key, value in snapshot["counters"].items():
        name = obs.parse_key(key)[0]
        totals[name] = totals.get(name, 0) + value
    return totals


class TestShardSharingIsTransparent:
    def test_shared_shard_equals_each_tool_alone_and_unscoped_run_spec(
        self, specs
    ):
        for spec in specs:
            shared = execute_shard(
                ShardTask(spec=spec, techniques=tuple(TRADITIONAL), seed=0)
            )
            truth = truth_command_outcomes(spec.truth_source)
            for technique in TRADITIONAL:
                alone = execute_shard(
                    ShardTask(spec=spec, techniques=(technique,), seed=0)
                )
                bare = run_spec(spec, technique, 0, truth)
                want = (bare.rep, bare.tm, bare.sm, bare.status)
                assert cells(alone)[technique] == want, (spec.spec_id, technique)
                assert cells(shared)[technique] == want, (spec.spec_id, technique)

    def test_every_kind_of_reuse_happens_and_is_counted(self, specs):
        merged = obs.MetricsRegistry()
        for spec in specs:
            result = execute_shard(
                ShardTask(
                    spec=spec, techniques=tuple(TRADITIONAL), seed=0, trace=True
                )
            )
            merged.merge(result.metrics)
        snapshot = merged.snapshot()
        totals = counter_totals(snapshot)
        # ICEBAR's suite resumes ARepair's positive and negative draws.
        assert totals["shard.suite_hits"] == 2 * len(specs)
        assert 0 < totals["shard.aunit_hits"] < totals["aunit.evaluations"]
        assert totals["shard.score_hits"] > 0
        profile = render_profile(trace_data_from_snapshot(snapshot))
        assert "cell scores reused in the shard" in profile
        assert (
            f"Shard reuse: {int(totals['shard.aunit_hits'])} of "
            f"{int(totals['aunit.evaluations'])} AUnit evaluations replayed"
        ) in profile

    @pytest.mark.parametrize("sizes", [(4, 5), (5, 4)])
    def test_suites_from_one_enumeration_equal_fresh_suites(self, specs, sizes):
        spec = specs[1]
        fresh = {
            size: generate_suite(
                Analyzer(spec.truth_source),
                positives=size,
                negatives=size,
                seed=size,
            ).tests
            for size in sizes
        }
        with verdict_sharing():
            oracle = Analyzer(spec.truth_source)
            shared = {
                size: generate_suite(
                    oracle, positives=size, negatives=size, seed=size
                ).tests
                for size in sizes
            }
        assert shared == fresh

    def test_consecutive_shards_each_compute_their_own_scores(
        self, specs, monkeypatch
    ):
        calls: list[str] = []
        original = runner.rep_outcome

        def counting(candidate_text, truth_text, truth_outcomes=None):
            calls.append(candidate_text)
            return original(candidate_text, truth_text, truth_outcomes)

        monkeypatch.setattr(runner, "rep_outcome", counting)
        task = ShardTask(spec=specs[0], techniques=tuple(TRADITIONAL), seed=0)
        first = execute_shard(task)
        first_calls = list(calls)
        calls.clear()
        second = execute_shard(task)
        assert cells(second) == cells(first)
        # Fewer calls than cells: equal final texts are scored once per
        # shard, and the second shard scores them again itself.
        assert 0 < len(first_calls) < len(TRADITIONAL)
        assert calls == first_calls
