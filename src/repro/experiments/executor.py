"""Execution backends for the experiment engine.

The matrix computation is embarrassingly parallel: every (specification,
technique) cell is deterministically seeded (see
:func:`repro.repair.registry.cell_seed`) and crash-isolated, so cells can
run in any order on any worker and still produce bit-identical results.
This module supplies the machinery:

- work is *sharded by specification* (:class:`ShardTask`), so the
  expensive per-spec ground-truth oracle is computed once per shard and
  shared by all of that spec's cells;
- :func:`execute_shard` runs one shard anywhere — the calling thread, a
  daemon worker thread, or a forked worker process — and returns a
  picklable :class:`ShardResult` whose failures are
  :class:`~repro.runtime.guard.FailureRecord` values, so crash isolation
  survives process boundaries where exceptions themselves may not pickle;
- two backends — :class:`SerialExecutor` (``jobs == 1``) and
  :class:`ProcessExecutor` (``jobs > 1``) — both yield shard results in
  *submission* order, which is what keeps parallel matrices
  byte-identical to serial ones and lets the runner flush its cache
  incrementally as shards land.

:class:`ProcessExecutor` prefers the ``fork`` start method so in-process
state (registered techniques, test monkeypatches) carries into workers;
on platforms without ``fork`` it falls back to the default start method,
where only importable (module-level) technique registrations are visible
to workers.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro import chaos, obs
from repro.benchmarks.faults import FaultySpec
from repro.chaos.plan import FaultPlan
from repro.metrics.rep import truth_command_outcomes
from repro.runtime.budget import Budget
from repro.runtime.errors import ShardTimeoutError
from repro.runtime.guard import FailureRecord, capture_failure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.runner import SpecOutcome


@dataclass(frozen=True)
class ShardTask:
    """One specification's pending cells — the unit of work distribution.

    Carries everything a worker needs to re-hydrate the work: the full
    :class:`FaultySpec`, the technique names (resolved against the
    technique registry inside the worker), and the run seed.  The payload
    is picklable by construction.
    """

    spec: FaultySpec
    techniques: tuple[str, ...]
    seed: int
    fail_fast: bool = False
    trace: bool = False
    """Capture spans/metrics for this shard's cells.  Never affects the
    outcomes — only whether the result carries telemetry payloads."""
    shard_timeout: float | None = None
    """Wall-clock seconds this shard may spend before its remaining cells
    are abandoned with a ``shard.timeout`` failure.  Enforced cooperatively
    *inside* the worker between cells (so partial results survive) and by
    the :class:`ProcessExecutor` watchdog for shards that stop cooperating
    entirely."""
    chaos: FaultPlan | None = None
    """Fault-injection plan, installed around the shard.  Riding on the
    task is what carries the plan across thread and process boundaries;
    trigger counters restart at zero per shard, so the fault schedule a
    spec sees is executor-independent."""


@dataclass
class ShardResult:
    """Everything one shard produced, in the shard's technique order."""

    spec_id: str
    outcomes: dict[str, "SpecOutcome"] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)
    elapsed: float = 0.0
    """Wall-clock seconds this shard spent executing (always measured)."""
    spans: list[dict] = field(default_factory=list)
    """Finished root spans as JSON payloads — picklable, so worker-process
    traces survive the trip back to the coordinator.  Empty when untraced."""
    metrics: dict = field(default_factory=dict)
    """A :meth:`~repro.obs.MetricsRegistry.snapshot`; empty when untraced."""
    chaos_events: list[dict] = field(default_factory=list)
    """Every injected fault that fired in this shard, as JSON payloads
    (:meth:`~repro.chaos.FireEvent.to_json` with the spec id folded in) —
    the audit trail the chaos invariant checker verifies against."""


def execute_shard(task: ShardTask) -> ShardResult:
    """Run every cell of one shard, crash-isolating each.

    The ground-truth command outcomes are computed once and shared by all
    cells of the shard.  With ``fail_fast`` the first exception propagates
    (re-raised by the executor in the coordinating thread); otherwise it is
    frozen into a :class:`FailureRecord` plus a ``"crashed"`` outcome.

    With ``task.trace``, a shard-local tracer/registry pair is installed
    for the duration (thread-local, so pool threads never interleave) and
    the result carries the spans and metric snapshot.
    """
    from repro.analysis.canon import verdict_sharing

    # verdict_sharing: one oracle cache for all of this shard's techniques
    # (same spec, same commands) — BeAFix's evidence and verdicts replay
    # for ATR and any inner tools.
    with verdict_sharing(), chaos.install(
        task.chaos, salt=task.spec.spec_id
    ) as scope:
        if not task.trace:
            result = _execute_shard_cells(task)
        else:
            tracer = obs.Tracer()
            metrics = obs.MetricsRegistry()
            with obs.scope(tracer, metrics):
                result = _execute_shard_cells(task)
            result.spans = [span.to_json() for span in tracer.roots()]
            result.metrics = metrics.snapshot()
    if scope is not None:
        for event in scope.events:
            event.info.setdefault("spec", task.spec.spec_id)
        result.chaos_events = [event.to_json() for event in scope.events]
    return result


def _execute_shard_cells(task: ShardTask) -> ShardResult:
    # Imported late: the runner imports this module, and binding run_spec
    # at call time keeps test monkeypatches on the runner effective.
    from repro.experiments import runner

    started = time.perf_counter()
    spec = task.spec
    result = ShardResult(spec_id=spec.spec_id)
    # Cooperative deadline: checked between cells, never mid-cell, so each
    # completed cell's outcome is kept and the shard degrades instead of
    # being torn down mid-computation.  Shards that stop cooperating (a
    # cell that hangs) are the ProcessExecutor watchdog's problem.
    deadline = (
        Budget(wall_seconds=task.shard_timeout)
        if task.shard_timeout is not None
        else None
    )

    def overdue(done: int) -> bool:
        if deadline is None or not deadline.exhausted:
            return False
        remaining = task.techniques[done:]
        result.failures.append(
            capture_failure(
                f"{spec.spec_id}:shard",
                ShardTimeoutError(
                    f"shard exceeded its {task.shard_timeout:g}s deadline "
                    f"with {len(remaining)} cell(s) pending",
                    context={
                        "spec": spec.spec_id,
                        "timeout": task.shard_timeout,
                        "pending": list(remaining),
                    },
                ),
            )
        )
        for technique in remaining:
            result.outcomes[technique] = runner._timeout_outcome(spec, technique)
        return True

    truth: list[bool] | None
    if overdue(0):
        result.elapsed = time.perf_counter() - started
        return result
    try:
        with obs.span("truth-oracle", spec=spec.spec_id):
            truth = truth_command_outcomes(spec.truth_source)
    except Exception as error:
        if task.fail_fast:
            raise
        result.failures.append(
            capture_failure(f"{spec.spec_id}:truth-oracle", error)
        )
        truth = None
    for done, technique in enumerate(task.techniques):
        if overdue(done):
            break
        if truth is None:
            # The ground truth itself would not analyze; every technique
            # on this spec is unscorable.
            result.outcomes[technique] = runner._crashed_outcome(spec, technique)
            continue
        with obs.span("cell", spec=spec.spec_id, technique=technique) as span:
            try:
                outcome = runner.run_spec(spec, technique, task.seed, truth)
            except Exception as error:
                if task.fail_fast:
                    raise
                result.failures.append(
                    capture_failure(f"{spec.spec_id}:{technique}", error)
                )
                outcome = runner._crashed_outcome(spec, technique)
            span.set(status=outcome.status, rep=outcome.rep)
        result.outcomes[technique] = outcome
    result.elapsed = time.perf_counter() - started
    return result


def timeout_shard_result(task: ShardTask, detail: str) -> ShardResult:
    """Synthesize the result for a shard the watchdog gave up on.

    Every pending cell becomes a ``"timeout"`` outcome and a single
    ``shard.timeout`` failure records the abandonment, so the matrix stays
    complete (each cell accounted for) even though the worker never
    reported back.
    """
    from repro.experiments import runner

    result = ShardResult(spec_id=task.spec.spec_id)
    result.failures.append(
        capture_failure(
            f"{task.spec.spec_id}:shard",
            ShardTimeoutError(
                detail,
                context={
                    "spec": task.spec.spec_id,
                    "timeout": task.shard_timeout,
                    "pending": list(task.techniques),
                },
            ),
        )
    )
    for technique in task.techniques:
        result.outcomes[technique] = runner._timeout_outcome(
            task.spec, technique
        )
    return result


class SerialExecutor:
    """The in-thread baseline: shards run one after another."""

    def run(self, shards: Sequence[ShardTask]) -> Iterator[ShardResult]:
        for shard in shards:
            yield execute_shard(shard)


class ProcessExecutor:
    """A multiprocessing pool — the backend for CPU-bound matrix runs.

    Shard payloads are pickled to workers, which re-hydrate the spec and
    techniques and return picklable results; a worker exception is already
    a :class:`FailureRecord` inside the result, so crash isolation holds
    across the process boundary.  If a worker dies without raising (a
    hard kill), the broken pool is abandoned and the remaining shards
    finish in-process rather than losing the run.

    When shards carry a ``shard_timeout``, a *watchdog* guards against
    workers that stop cooperating entirely (the cooperative in-worker
    deadline only checks between cells, so a single hanging cell could
    wedge a pool slot forever).  Each result wait is bounded by twice the
    largest shard timeout plus a grace second; a shard that misses even
    that is declared hung and *abandoned*: it gets ``"timeout"`` outcomes
    plus a ``shard.timeout`` failure, already-finished results are
    salvaged, everything else finishes in-process, and the wedged pool is
    torn down without waiting — the run always completes.
    """

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    @staticmethod
    def _context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    @staticmethod
    def _watchdog_allowance(shards: Sequence[ShardTask]) -> float | None:
        """How long to wait on one shard before declaring it hung.

        Twice the largest cooperative deadline plus a grace second: a
        cooperating shard returns within its own timeout (plus scheduling
        slack), so anything that overstays this allowance is genuinely
        stuck, not merely slow.  ``None`` (wait forever) when no shard
        carries a timeout — the historical behaviour.
        """
        timeouts = [
            shard.shard_timeout
            for shard in shards
            if shard.shard_timeout is not None
        ]
        return max(timeouts) * 2 + 1.0 if timeouts else None

    def run(self, shards: Sequence[ShardTask]) -> Iterator[ShardResult]:
        allowance = self._watchdog_allowance(shards)
        pool = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self._context()
        )
        abandoned = False
        try:
            futures = [pool.submit(execute_shard, shard) for shard in shards]
            for index, future in enumerate(futures):
                try:
                    yield future.result(timeout=allowance)
                except BrokenProcessPool:
                    abandoned = True
                    yield from self._finish_in_process(shards[index:])
                    return
                except FutureTimeout:
                    abandoned = True
                    task = shards[index]
                    detail = (
                        f"worker for {task.spec.spec_id!r} exceeded the "
                        f"{allowance:g}s watchdog allowance without reporting"
                    )
                    yield timeout_shard_result(task, detail)
                    yield from self._salvage(
                        shards, futures, start=index + 1
                    )
                    return
        finally:
            if abandoned:
                # Never wait on a wedged pool: cancel what has not started
                # and hard-kill the workers (one of them is hung by
                # construction — a graceful join would block forever).
                pool.shutdown(wait=False, cancel_futures=True)
                processes = getattr(pool, "_processes", None) or {}
                for process in list(processes.values()):
                    try:
                        process.terminate()
                    except Exception:  # pragma: no cover - best effort
                        pass
            else:
                pool.shutdown(wait=True)

    @staticmethod
    def _salvage(
        shards: Sequence[ShardTask],
        futures: Sequence,
        start: int,
    ) -> Iterator[ShardResult]:
        """After a watchdog trip: keep finished results, redo the rest.

        Results other workers already produced are valid (determinism does
        not depend on which pool computed a shard); everything still queued
        or running re-executes in-process, because the pool is about to be
        torn down.
        """
        for index in range(start, len(futures)):
            future = futures[index]
            if future.done() and not future.cancelled():
                try:
                    yield future.result()
                    continue
                except Exception:  # fall through to the in-process rerun
                    pass
            future.cancel()
            yield execute_shard(shards[index])

    @staticmethod
    def _finish_in_process(
        remaining: Iterable[ShardTask],
    ) -> Iterator[ShardResult]:
        for shard in remaining:
            yield execute_shard(shard)
