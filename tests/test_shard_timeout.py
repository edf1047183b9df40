"""Shard deadlines: cooperative in-worker enforcement and the watchdog.

The contract under test: an overdue shard records exactly one
``shard.timeout`` failure and ``"timeout"`` outcomes for its *pending*
cells (completed cells are kept), a hung worker is bounded by the
ProcessExecutor watchdog rather than wedging the run, and timeout
artifacts never enter the result cache.
"""

import multiprocessing
import time
from contextlib import contextmanager

import pytest

from repro.benchmarks.faults import FaultySpec
from repro.experiments.executor import (
    ProcessExecutor,
    ShardTask,
    execute_shard,
    timeout_shard_result,
)
from repro.experiments.runner import (
    MATRIX_SCHEMA,
    ResultMatrix,
    RunConfig,
    _save_outcomes,
    _timeout_outcome,
)
from repro.llm.prompts import RepairHints
from repro.repair import registry
from repro.repair.base import RepairResult, RepairStatus, RepairTool
from repro.runtime.errors import ShardTimeoutError
from repro.runtime.guard import capture_failure
from repro.runtime.persist import load_json

from .conftest import LINKED_LIST_SPEC


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def make_spec(spec_id: str) -> FaultySpec:
    return FaultySpec(
        spec_id=spec_id,
        benchmark="adhoc",
        domain="adhoc",
        model_name=spec_id,
        faulty_source=LINKED_LIST_SPEC,
        truth_source=LINKED_LIST_SPEC,
        fault_description="",
        depth=0,
        hints=RepairHints(),
    )


class _Sleepy(RepairTool):
    """Cooperative slowness: sleeps, then finishes normally."""

    name = "Sleepy"
    nap = 0.5

    def _repair(self, task):
        time.sleep(self.nap)
        return RepairResult(status=RepairStatus.NOT_FIXED, technique=self.name)


class _Hangy(RepairTool):
    """Uncooperative slowness: hangs only inside a pool worker, so the
    watchdog's in-process recovery paths stay fast."""

    name = "Hangy"

    def _repair(self, task):
        if multiprocessing.parent_process() is not None:
            time.sleep(30)
        return RepairResult(status=RepairStatus.NOT_FIXED, technique=self.name)


@contextmanager
def registered(name, factory):
    registry.register(name, factory, replace=True)
    try:
        yield
    finally:
        registry.unregister(name)


class TestCooperativeDeadline:
    def test_overdue_shard_keeps_done_cells_and_times_out_the_rest(self):
        task = ShardTask(
            spec=make_spec("slow"),
            techniques=("Sleepy", "ATR"),
            seed=0,
            shard_timeout=0.2,
        )
        with registered("Sleepy", lambda spec, seed: _Sleepy()):
            result = execute_shard(task)
        # The cell that was already running finished and is kept; only the
        # cells still pending at the deadline check become timeouts.
        assert result.outcomes["Sleepy"].status == "not_fixed"
        assert result.outcomes["ATR"].status == "timeout"
        assert result.outcomes["ATR"].rep == 0
        (failure,) = result.failures
        assert failure.code == "shard.timeout"
        assert failure.where == "slow:shard"
        assert failure.context["pending"] == ["ATR"]

    def test_generous_deadline_changes_nothing(self):
        task = ShardTask(
            spec=make_spec("fine"), techniques=("ATR",), seed=0
        )
        timed = ShardTask(
            spec=make_spec("fine"),
            techniques=("ATR",),
            seed=0,
            shard_timeout=600.0,
        )
        plain_result = execute_shard(task)
        timed_result = execute_shard(timed)
        assert timed_result.failures == []
        assert {
            t: (o.rep, o.tm, o.sm, o.status)
            for t, o in timed_result.outcomes.items()
        } == {
            t: (o.rep, o.tm, o.sm, o.status)
            for t, o in plain_result.outcomes.items()
        }

    def test_deadline_before_first_cell_times_out_everything(self):
        task = ShardTask(
            spec=make_spec("instant"),
            techniques=("ATR", "BeAFix"),
            seed=0,
            shard_timeout=1e-9,
        )
        result = execute_shard(task)
        assert {o.status for o in result.outcomes.values()} == {"timeout"}
        (failure,) = result.failures
        assert failure.context["pending"] == ["ATR", "BeAFix"]


class TestWatchdog:
    def test_allowance_is_twice_the_largest_timeout_plus_grace(self):
        plain = ShardTask(spec=make_spec("a"), techniques=("ATR",), seed=0)
        timed = ShardTask(
            spec=make_spec("b"), techniques=("ATR",), seed=0, shard_timeout=3.0
        )
        assert ProcessExecutor._watchdog_allowance([plain]) is None
        assert ProcessExecutor._watchdog_allowance([plain, timed]) == 7.0

    def _shards(self):
        return [
            ShardTask(
                spec=make_spec(spec_id),
                techniques=("Hangy",),
                seed=0,
                shard_timeout=0.4,
            )
            for spec_id in ("hung", "fine-1", "fine-2")
        ]

    def test_hung_worker_is_abandoned_and_the_run_completes(self):
        with registered("Hangy", lambda spec, seed: _Hangy()):
            results = list(ProcessExecutor(jobs=2).run(self._shards()))
        assert [r.spec_id for r in results] == ["hung", "fine-1", "fine-2"]
        hung = results[0]
        assert hung.outcomes["Hangy"].status == "timeout"
        (failure,) = hung.failures
        assert failure.code == "shard.timeout"
        assert "watchdog" in failure.message
        for salvaged in results[1:]:
            assert salvaged.outcomes["Hangy"].status == "not_fixed"
            assert salvaged.failures == []


class TestTimeoutArtifactsStayOutOfTheCache:
    def test_save_outcomes_filters_timeouts(self, tmp_path):
        spec = make_spec("mixed")
        matrix = ResultMatrix(benchmark="adhoc", seed=0, scale=1.0, specs=[spec])
        matrix.outcomes["mixed"] = {
            "ATR": _timeout_outcome(spec, "ATR"),
            "BeAFix": _completed(spec, "BeAFix"),
        }
        matrix.failures.append(
            capture_failure(
                "mixed:shard", ShardTimeoutError("deadline exceeded")
            )
        )
        matrix.failures.append(
            capture_failure("mixed:ATR", RuntimeError("real crash"))
        )
        path = tmp_path / "matrix.json"
        _save_outcomes(matrix, path)
        payload = load_json(path, schema=MATRIX_SCHEMA)
        # Timeout cells and shard.timeout records are execution artifacts:
        # a rerun must recompute them, so they never persist.
        assert payload["outcomes"]["mixed"] == {
            "BeAFix": {
                "rep": 0, "tm": 0.0, "sm": 0.0,
                "status": "not_fixed", "elapsed": 0.0,
            }
        }
        assert [record["code"] for record in payload["failures"]] == [
            "internal.RuntimeError"
        ]

    def test_synthesized_watchdog_result_is_complete(self):
        task = ShardTask(
            spec=make_spec("gone"),
            techniques=("ATR", "BeAFix"),
            seed=0,
            shard_timeout=1.0,
        )
        result = timeout_shard_result(task, "worker never reported")
        assert set(result.outcomes) == {"ATR", "BeAFix"}
        assert {o.status for o in result.outcomes.values()} == {"timeout"}
        (failure,) = result.failures
        assert failure.code == "shard.timeout"
        assert failure.context["pending"] == ["ATR", "BeAFix"]


class TestRunConfigTimeout:
    def test_shard_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            RunConfig(benchmark="arepair", shard_timeout=0)
        with pytest.raises(ValueError, match="shard_timeout"):
            RunConfig(benchmark="arepair", shard_timeout=-1.5)


def _completed(spec, technique):
    from repro.experiments.runner import SpecOutcome

    return SpecOutcome(
        spec_id=spec.spec_id,
        technique=technique,
        rep=0,
        tm=0.0,
        sm=0.0,
        status="not_fixed",
        elapsed=0.0,
    )
