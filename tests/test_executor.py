"""The parallel experiment engine: executors, sharding, resume, progress.

The engine's central contract is that parallelism is an execution detail:
serial and process-pool runs of the same :class:`RunConfig` must produce
identical matrices (and share one cache entry), shards run on threads
(as the service daemon runs them) must match too, a worker crash must
degrade to a ``crashed`` cell rather than kill the run, and a killed run
must resume from its flushed shards.
"""

import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.benchmarks.faults import FaultySpec
from repro.experiments.executor import (
    ProcessExecutor,
    SerialExecutor,
    ShardResult,
    ShardTask,
    execute_shard,
)
from repro.experiments.runner import (
    RunConfig,
    SpecOutcome,
    _matrix_key,
    run_matrix,
)
from repro.llm.prompts import RepairHints
from repro.repair import registry
from repro.runtime.guard import capture_failure

from .conftest import LINKED_LIST_SPEC


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def payload(matrix):
    """The result content of a matrix — everything except wall-clock."""
    return {
        spec_id: {
            technique: (o.rep, o.tm, o.sm, o.status)
            for technique, o in row.items()
        }
        for spec_id, row in matrix.outcomes.items()
    }


def _tiny_spec() -> FaultySpec:
    return FaultySpec(
        spec_id="tiny",
        benchmark="adhoc",
        domain="adhoc",
        model_name="tiny",
        faulty_source=LINKED_LIST_SPEC,
        truth_source=LINKED_LIST_SPEC,
        fault_description="",
        depth=0,
        hints=RepairHints(),
    )


class TestExecutorEquivalence:
    """Acceptance criterion: parallel runs are identical to serial runs."""

    TECHNIQUES = ("ATR", "BeAFix")

    def _config(self, **overrides):
        base = dict(
            benchmark="arepair",
            scale=0.1,
            seed=0,
            techniques=self.TECHNIQUES,
            use_cache=False,
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_process_jobs_4_matches_serial(self):
        serial = run_matrix(self._config())
        parallel = run_matrix(self._config(jobs=4))
        assert payload(parallel) == payload(serial)
        for technique in self.TECHNIQUES:
            assert parallel.rep_count(technique) == serial.rep_count(technique)
            assert parallel.mean_similarity(technique, "tm") == (
                serial.mean_similarity(technique, "tm")
            )
            assert parallel.mean_similarity(technique, "sm") == (
                serial.mean_similarity(technique, "sm")
            )

    def test_thread_pool_matches_serial(self):
        # The service daemon runs execute_shard on worker threads, so
        # shards racing on one process must still reproduce the matrix.
        # ARepair and ICEBAR share suites, AUnit verdicts and scores within
        # a shard: the thread-local scope must keep concurrent shards apart.
        for techniques in (("ATR",), ("ARepair", "ICEBAR")):
            serial = run_matrix(self._config(techniques=techniques))
            shards = [
                ShardTask(spec=spec, techniques=techniques, seed=0)
                for spec in serial.specs
            ]
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(execute_shard, shards))
            threaded = {
                result.spec_id: {
                    technique: (o.rep, o.tm, o.sm, o.status)
                    for technique, o in result.outcomes.items()
                }
                for result in results
            }
            assert threaded == payload(serial), techniques

    def test_parallel_run_is_served_from_serial_cache(self, monkeypatch):
        import repro.experiments.runner as runner_module

        config = dict(benchmark="arepair", scale=0.05, techniques=("ATR",))
        serial = run_matrix(RunConfig(**config))

        def must_not_run(spec, technique, seed, truth_outcomes=None):
            raise AssertionError("expected a cache hit, not a recomputation")

        monkeypatch.setattr(runner_module, "run_spec", must_not_run)
        parallel = run_matrix(RunConfig(**config, jobs=4))
        assert payload(parallel) == payload(serial)


class TestCrashIsolationAcrossProcesses:
    def test_worker_crash_becomes_failure_record_and_crashed_cell(self):
        def crashing_factory(spec, seed):
            raise RuntimeError("injected worker crash")

        registry.register("Crashy", crashing_factory)
        try:
            matrix = run_matrix(
                RunConfig(
                    benchmark="arepair",
                    scale=0.05,
                    techniques=("ATR", "Crashy"),
                    jobs=2,
                    use_cache=False,
                )
            )
        finally:
            registry.unregister("Crashy")
        assert matrix.specs, "scaled benchmark should not be empty"
        for spec in matrix.specs:
            row = matrix.outcomes[spec.spec_id]
            assert row["Crashy"].status == "crashed"
            assert row["Crashy"].rep == 0
            assert row["ATR"].status != "crashed"
        assert len(matrix.failures) == len(matrix.specs)
        assert matrix.failure_summary() == {
            "internal.RuntimeError": len(matrix.specs)
        }
        assert all(f.where.endswith(":Crashy") for f in matrix.failures)


class TestBrokenPoolFallback:
    def test_hard_killed_worker_falls_back_in_process(self):
        """A worker that dies without raising (os._exit, OOM-kill) breaks
        the pool; the run must finish in-process instead of dying with it."""
        import multiprocessing
        import os

        from repro.repair.base import RepairResult, RepairStatus, RepairTool

        class HardKill(RepairTool):
            name = "HardKill"

            def _repair(self, task):
                # Only die inside a pool worker — the in-process fallback
                # (and the test runner) must survive.
                if multiprocessing.parent_process() is not None:
                    os._exit(3)
                return RepairResult(
                    status=RepairStatus.NOT_FIXED, technique=self.name
                )

        registry.register("HardKill", lambda spec, seed: HardKill())
        try:
            matrix = run_matrix(
                RunConfig(
                    benchmark="arepair",
                    scale=0.05,
                    techniques=("HardKill",),
                    jobs=2,
                    use_cache=False,
                )
            )
        finally:
            registry.unregister("HardKill")
        assert matrix.specs, "scaled benchmark should not be empty"
        for spec in matrix.specs:
            assert matrix.outcomes[spec.spec_id]["HardKill"].status == "not_fixed"
        assert matrix.failures == []


class TestResumeFromShardCache:
    def test_interrupted_run_resumes_from_flushed_shards(
        self, isolated_cache, monkeypatch
    ):
        import repro.experiments.runner as runner_module

        real_run_spec = runner_module.run_spec
        config = dict(benchmark="arepair", scale=0.1, techniques=("ATR",))
        clean = run_matrix(RunConfig(**config, use_cache=False))
        completed_before_kill = 5
        calls = {"n": 0}

        def killed_mid_run(spec, technique, seed, truth_outcomes=None):
            if calls["n"] >= completed_before_kill:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real_run_spec(spec, technique, seed, truth_outcomes)

        monkeypatch.setattr(runner_module, "run_spec", killed_mid_run)
        with pytest.raises(KeyboardInterrupt):
            run_matrix(RunConfig(**config))

        # The flushed shards survived the kill...
        partial = ResumeProbe.load_cached_rows(isolated_cache)
        assert len(partial) == completed_before_kill

        # ...and the rerun recomputes only what is missing.
        recomputed = {"n": 0}

        def counting(spec, technique, seed, truth_outcomes=None):
            recomputed["n"] += 1
            return real_run_spec(spec, technique, seed, truth_outcomes)

        monkeypatch.setattr(runner_module, "run_spec", counting)
        matrix = run_matrix(RunConfig(**config))
        assert recomputed["n"] == len(matrix.specs) - completed_before_kill
        assert set(matrix.outcomes) == {s.spec_id for s in matrix.specs}

        # ...and converges to the clean uncached run, cell for cell.
        def cells(result):
            return {
                spec_id: {
                    t: (o.rep, o.tm, o.sm, o.status) for t, o in row.items()
                }
                for spec_id, row in result.outcomes.items()
            }

        assert cells(matrix) == cells(clean)


class ResumeProbe:
    @staticmethod
    def load_cached_rows(cache_root):
        import json

        (cache_file,) = cache_root.glob("matrix-*.json")
        return json.loads(cache_file.read_text())["data"]["outcomes"]


class TestProgressListener:
    class Recorder:
        def __init__(self):
            self.cells = []
            self.shards = []
            self.failures = []

        def on_cell(self, benchmark, outcome, done, total):
            self.cells.append((benchmark, outcome.technique, done, total))

        def on_shard_done(
            self, benchmark, spec_id, shards_done, total_shards, elapsed, cells
        ):
            self.shards.append((spec_id, shards_done, total_shards))

        def on_failure(self, benchmark, failure):
            self.failures.append(failure)

    def test_listener_sees_every_cell_and_shard(self):
        recorder = self.Recorder()
        matrix = run_matrix(
            RunConfig(
                benchmark="arepair",
                scale=0.05,
                techniques=("ATR",),
                use_cache=False,
                listener=recorder,
            )
        )
        n = len(matrix.specs)
        assert [done for _, _, done, _ in recorder.cells] == list(range(1, n + 1))
        assert all(total == n for _, _, _, total in recorder.cells)
        assert [progress for _, *progress in recorder.shards] == [
            [i, n] for i in range(1, n + 1)
        ]
        assert recorder.failures == []

    def test_library_default_is_silent(self, capsys):
        run_matrix(
            RunConfig(
                benchmark="arepair",
                scale=0.05,
                techniques=("ATR",),
                use_cache=False,
            )
        )
        assert capsys.readouterr().out == ""


class TestRunMatrixApi:
    def test_legacy_call_shape_is_rejected(self):
        with pytest.raises(TypeError, match="RunConfig"):
            run_matrix("arepair")

    def test_legacy_keyword_shape_is_rejected(self):
        with pytest.raises(TypeError):
            run_matrix("arepair", scale=0.05, techniques=["ATR"])

    def test_runconfig_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            RunConfig(benchmark="arepair", jobs=0)

    def test_unknown_technique_is_rejected_before_running(self):
        with pytest.raises(ValueError, match="NoSuchTool"):
            run_matrix(
                RunConfig(benchmark="arepair", techniques=("NoSuchTool",))
            )


class TestCacheKey:
    def test_key_folds_the_technique_set(self):
        subset = _matrix_key("arepair", 0, 1.0, ["ATR"])
        pair = _matrix_key("arepair", 0, 1.0, ["ATR", "BeAFix"])
        assert subset != pair

    def test_key_ignores_technique_order(self):
        forward = _matrix_key("arepair", 0, 1.0, ["ATR", "BeAFix"])
        backward = _matrix_key("arepair", 0, 1.0, ["BeAFix", "ATR"])
        assert forward == backward

    def test_key_varies_with_seed_and_scale(self):
        base = _matrix_key("arepair", 0, 1.0, ["ATR"])
        assert _matrix_key("arepair", 1, 1.0, ["ATR"]) != base
        assert _matrix_key("arepair", 0, 0.5, ["ATR"]) != base


class TestExecutorFactory:
    """``jobs`` alone picks the backend ``run_matrix`` uses."""

    @pytest.fixture
    def backends(self, monkeypatch):
        import repro.experiments.runner as runner_module

        used = []

        class RecordingSerial(SerialExecutor):
            def run(self, shards):
                used.append("serial")
                return super().run(shards)

        class RecordingProcess(ProcessExecutor):
            def run(self, shards):
                used.append(("process", self.jobs))
                return super().run(shards)

        monkeypatch.setattr(runner_module, "SerialExecutor", RecordingSerial)
        monkeypatch.setattr(runner_module, "ProcessExecutor", RecordingProcess)
        return used

    def _run(self, jobs):
        return run_matrix(
            RunConfig(
                benchmark="arepair",
                scale=0.05,
                techniques=("ATR",),
                jobs=jobs,
                use_cache=False,
            )
        )

    def test_auto_is_serial_for_one_job(self, backends):
        self._run(jobs=1)
        assert backends == ["serial"]

    def test_auto_is_a_process_pool_for_many_jobs(self, backends):
        self._run(jobs=4)
        assert backends == [("process", 4)]

    def test_pool_executors_reject_zero_jobs(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)


class TestPicklability:
    """Everything that crosses the process boundary must pickle."""

    def test_shard_task_round_trips(self):
        task = ShardTask(
            spec=_tiny_spec(), techniques=("ATR", "BeAFix"), seed=7
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_shard_result_with_failure_round_trips(self):
        class ContextualError(RuntimeError):
            def __init__(self):
                super().__init__("boom")
                # An unpicklable context value: capture must flatten it.
                self.context = {"handle": object()}

        try:
            raise ContextualError()
        except ContextualError as error:
            record = capture_failure("tiny:ATR", error)
        result = ShardResult(
            spec_id="tiny",
            outcomes={
                "ATR": SpecOutcome(
                    spec_id="tiny",
                    technique="ATR",
                    rep=0,
                    tm=0.0,
                    sm=0.0,
                    status="crashed",
                    elapsed=0.0,
                )
            },
            failures=[record],
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.outcomes == result.outcomes
        assert clone.failures == result.failures
        assert "object at 0x" in clone.failures[0].context["handle"]
