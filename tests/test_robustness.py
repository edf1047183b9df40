"""Integration tests for the resilience layer: crash-isolated experiment
runs, corruption-tolerant caches, budgeted analysis, retrying LLM clients,
hardened extraction, and CLI error handling."""

import json

import pytest

from repro.alloy.errors import AnalysisBudgetError
from repro.analyzer.analyzer import Analyzer
from repro.benchmarks.cache import BENCHMARK_SCHEMA, load_benchmark
from repro.cli import EXIT_INPUT, main
from repro.experiments.runner import (
    MATRIX_SCHEMA,
    RunConfig,
    run_matrix,
    run_spec,
)
from repro import chaos
from repro.llm.client import Conversation, RetryingClient, TransientLLMError
from repro.llm.extract import extract_module
from repro.llm.mock_gpt import MockGPT
from repro.repair.base import RepairStatus, RepairTask, RepairTool
from repro.runtime import Budget, RetryPolicy


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


class TestCrashIsolatedRepair:
    def test_arbitrary_tool_crash_becomes_error_result(self, linked_list_spec):
        class BuggyTool(RepairTool):
            name = "Buggy"

            def _repair(self, task):
                raise KeyError("tool bug")

        result = BuggyTool().repair(RepairTask.from_source(linked_list_spec))
        assert result.status is RepairStatus.ERROR
        assert "[internal.KeyError]" in result.detail

    def test_keyboard_interrupt_still_propagates(self, linked_list_spec):
        class InterruptedTool(RepairTool):
            name = "Interrupted"

            def _repair(self, task):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            InterruptedTool().repair(RepairTask.from_source(linked_list_spec))


class TestCrashIsolatedMatrix:
    def test_cell_crash_is_recorded_not_fatal(self, monkeypatch):
        import repro.experiments.runner as runner_module

        real_run_spec = run_spec

        def sabotaged(spec, technique, seed, truth_outcomes=None):
            if technique == "ATR":
                raise RuntimeError("injected cell crash")
            return real_run_spec(spec, technique, seed, truth_outcomes)

        monkeypatch.setattr(runner_module, "run_spec", sabotaged)
        matrix = run_matrix(
            RunConfig(
                benchmark="arepair",
                scale=0.1,
                techniques=("BeAFix", "ATR"),
                use_cache=False,
            )
        )
        assert matrix.specs, "scaled benchmark should not be empty"
        for spec in matrix.specs:
            assert matrix.outcomes[spec.spec_id]["ATR"].status == "crashed"
            assert matrix.outcomes[spec.spec_id]["ATR"].rep == 0
            assert matrix.outcomes[spec.spec_id]["BeAFix"].status != "crashed"
        assert len(matrix.failures) == len(matrix.specs)
        assert matrix.failure_summary() == {
            "internal.RuntimeError": len(matrix.specs)
        }

    def test_fail_fast_propagates_the_crash(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def always_crashes(spec, technique, seed, truth_outcomes=None):
            raise RuntimeError("injected cell crash")

        monkeypatch.setattr(runner_module, "run_spec", always_crashes)
        with pytest.raises(RuntimeError, match="injected cell crash"):
            run_matrix(
                RunConfig(
                    benchmark="arepair",
                    scale=0.1,
                    techniques=("ATR",),
                    use_cache=False,
                    fail_fast=True,
                )
            )

    def test_failures_round_trip_through_the_cache(self):
        import repro.experiments.runner as runner_module

        def always_crashes(spec, technique, seed, truth_outcomes=None):
            raise RuntimeError("injected cell crash")

        # A dedicated MonkeyPatch context: undoing the test's shared
        # `monkeypatch` here would also undo the cache isolation fixture.
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(runner_module, "run_spec", always_crashes)
            first = run_matrix(
                RunConfig(benchmark="arepair", scale=0.1, techniques=("ATR",))
            )
        # Second call must be served entirely from cache (run_spec restored,
        # so a cache miss would produce non-crashed outcomes).
        second = run_matrix(
            RunConfig(benchmark="arepair", scale=0.1, techniques=("ATR",))
        )
        assert len(second.failures) == len(first.failures)
        for spec in second.specs:
            assert second.outcomes[spec.spec_id]["ATR"].status == "crashed"


class TestGracefulInterrupt:
    class _InterruptAfterFirstShard:
        """A listener standing in for Ctrl-C landing mid-run."""

        def on_cell(self, benchmark, outcome, done, total):
            pass

        def on_shard_done(
            self, benchmark, spec_id, shards_done, total_shards, elapsed, cells
        ):
            raise KeyboardInterrupt

        def on_failure(self, benchmark, failure):
            pass

    def test_interrupt_flushes_partial_results_and_reraises(
        self, isolated_cache, capsys
    ):
        # The listener interrupts before the first shard's own flush, so
        # the only way its cells reach the cache is the interrupt
        # handler's explicit flush.
        config = RunConfig(
            benchmark="arepair",
            scale=0.1,
            techniques=("ATR",),
            listener=self._InterruptAfterFirstShard(),
        )
        with pytest.raises(KeyboardInterrupt):
            run_matrix(config)
        err = capsys.readouterr().err
        assert "interrupted:" in err
        assert "a rerun resumes from there" in err
        from repro.runtime.persist import load_json

        (cache_file,) = isolated_cache.glob("matrix-*.json")
        payload = load_json(cache_file, schema=MATRIX_SCHEMA)
        flushed = payload["outcomes"]
        assert flushed, "the finished shard must survive the interrupt"
        assert all("ATR" in row for row in flushed.values())
        # The rerun resumes from the flushed shard and completes.
        matrix = run_matrix(
            RunConfig(benchmark="arepair", scale=0.1, techniques=("ATR",))
        )
        assert all("ATR" in row for row in matrix.outcomes.values())
        for spec_id, row in flushed.items():
            assert matrix.outcomes[spec_id]["ATR"].rep == row["ATR"]["rep"]

    def test_interrupt_without_cache_still_reports_and_reraises(self, capsys):
        config = RunConfig(
            benchmark="arepair",
            scale=0.1,
            techniques=("ATR",),
            use_cache=False,
            listener=self._InterruptAfterFirstShard(),
        )
        with pytest.raises(KeyboardInterrupt):
            run_matrix(config)
        assert "computed but not cached" in capsys.readouterr().err


class TestMatrixCacheRobustness:
    def _cache_files(self, cache_root):
        return list(cache_root.glob("matrix-*.json"))

    def test_corrupt_matrix_cache_regenerates(self, isolated_cache):
        matrix = run_matrix(
            RunConfig(benchmark="arepair", scale=0.1, techniques=("ATR",))
        )
        (cache_file,) = self._cache_files(isolated_cache)
        cache_file.write_text('{"schema": "' + MATRIX_SCHEMA + '", "data": {')
        again = run_matrix(
            RunConfig(benchmark="arepair", scale=0.1, techniques=("ATR",))
        )
        assert {
            spec_id: outcome["ATR"].rep
            for spec_id, outcome in again.outcomes.items()
        } == {
            spec_id: outcome["ATR"].rep
            for spec_id, outcome in matrix.outcomes.items()
        }

    def test_pre_versioning_matrix_cache_regenerates(self, isolated_cache):
        run_matrix(
            RunConfig(benchmark="arepair", scale=0.1, techniques=("ATR",))
        )
        (cache_file,) = self._cache_files(isolated_cache)
        cache_file.write_text("{}")  # old unstamped format
        again = run_matrix(
            RunConfig(benchmark="arepair", scale=0.1, techniques=("ATR",))
        )
        assert all("ATR" in row for row in again.outcomes.values())


class TestBenchmarkCacheRobustness:
    def test_truncated_benchmark_cache_regenerates(self, isolated_cache, capsys):
        specs = load_benchmark("arepair", scale=0.1)
        (cache_file,) = isolated_cache.glob("arepair-*.json")
        cache_file.write_text('{"schema": "' + BENCHMARK_SCHEMA + '", "data": [{')
        again = load_benchmark("arepair", scale=0.1)
        assert [s.spec_id for s in again] == [s.spec_id for s in specs]
        assert "discarding unusable benchmark cache" in capsys.readouterr().err

    def test_benchmark_cache_write_is_atomic(self, isolated_cache):
        load_benchmark("arepair", scale=0.1)
        leftovers = [
            p for p in isolated_cache.iterdir() if p.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_valid_cache_still_round_trips(self, isolated_cache):
        first = load_benchmark("arepair", scale=0.1)
        second = load_benchmark("arepair", scale=0.1)
        assert [s.faulty_source for s in first] == [s.faulty_source for s in second]


class TestBudgetedAnalysis:
    def test_session_budget_bounds_solver_calls(self, linked_list_spec):
        analyzer = Analyzer(linked_list_spec, budget=Budget(steps=1))
        # One command fits in one solver call; the next call must trip.
        analyzer.run_command(analyzer.info.commands[0])
        with pytest.raises(AnalysisBudgetError):
            analyzer.run_command(analyzer.info.commands[0])

    def test_enumeration_budget_keeps_partial_instances(self, linked_list_spec):
        # Enumerating many instances charges one step each; the first
        # instance lands within budget, later ones trip it — the result
        # must keep what was found and flag the truncation.
        analyzer = Analyzer(linked_list_spec, budget=Budget(steps=1))
        result = analyzer.run_command(
            analyzer.info.commands[0], max_instances=50
        )
        assert result.sat
        assert result.truncated
        assert len(result.instances) == 1

    def test_unbudgeted_analysis_is_unchanged(self, linked_list_spec):
        analyzer = Analyzer(linked_list_spec)
        result = analyzer.run_command(analyzer.info.commands[0], max_instances=5)
        assert result.sat and not result.truncated


class TestRetryingClient:
    def test_rides_through_injected_failures(self):
        # Every request fails until the site's two fires are spent: fewer
        # than the policy's three attempts, so the retries absorb them.
        plan = chaos.FaultPlan(
            seed=0,
            sites={
                "llm.transient": chaos.SiteConfig(probability=1.0, max_fires=2)
            },
        )
        client = RetryingClient(
            MockGPT(seed=7),
            policy=RetryPolicy(attempts=3),
            sleep=lambda delay: None,
        )
        conversation = Conversation()
        conversation.add("user", "fix this spec please")
        reference = MockGPT(seed=7).complete(conversation)
        with chaos.install(plan) as scope:
            for _ in range(4):
                assert client.complete(conversation) == reference
        assert len(scope.events) == 2
        assert client.retries > 0

    def test_gives_up_after_policy_attempts(self):
        class AlwaysDown:
            def complete(self, conversation):
                raise TransientLLMError("api down")

        client = RetryingClient(AlwaysDown(), policy=RetryPolicy(attempts=2))
        conversation = Conversation()
        conversation.add("user", "hello")
        with pytest.raises(TransientLLMError):
            client.complete(conversation)
        assert client.retries == 1

    def test_empty_completion_is_retried(self):
        class Stuttering:
            def __init__(self):
                self.calls = 0

            def complete(self, conversation):
                self.calls += 1
                return "" if self.calls == 1 else "sig A {}"

        inner = Stuttering()
        client = RetryingClient(inner)
        conversation = Conversation()
        conversation.add("user", "hello")
        assert client.complete(conversation) == "sig A {}"
        assert inner.calls == 2


class TestExtractionHardening:
    def test_unterminated_fence_is_recovered(self):
        response = (
            "Here is the corrected specification:\n"
            "```alloy\n"
            "sig Node { next: lone Node }\n"
            "fact Acyclic { all n: Node | n not in n.^next }\n"
            # ...the completion was cut off before the closing fence
        )
        module = extract_module(response)
        assert len(module.paragraphs) == 2

    def test_paired_fences_still_preferred(self):
        response = (
            "```alloy\nsig Node { next: lone Node }\n```\n"
            "And a fragment: `sig`"
        )
        module = extract_module(response)
        assert len(module.paragraphs) == 1


class TestCliHardening:
    def test_missing_file_is_friendly(self, capsys):
        assert main(["analyze", "/no/such/file.als"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "no such file" in err
        assert "Traceback" not in err

    def test_unparsable_spec_is_friendly(self, tmp_path, capsys):
        bad = tmp_path / "bad.als"
        bad.write_text("sig { this is not alloy")
        assert main(["analyze", str(bad)]) == EXIT_INPUT
        assert "specification error" in capsys.readouterr().err

    def test_directory_instead_of_file_is_friendly(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Is a directory" in err
        assert "Traceback" not in err

    def test_scale_out_of_range_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--scale", "1.5"])
        assert excinfo.value.code == 2

    def test_negative_seed_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--seed", "-3"])
        assert excinfo.value.code == 2

    def test_fail_fast_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["all", "--fail-fast"])
        assert args.fail_fast
