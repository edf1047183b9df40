""":class:`ReproService` — the asyncio daemon behind ``repro serve``.

One process, three layers:

- an **asyncio front end** accepting line-delimited JSON connections on a
  Unix socket: submissions stream their job's state transitions back on
  the same connection until the terminal event (``done``/``failed``);
- an **admission pipeline** consulted before a job exists: drain state,
  circuit breakers (LLM transport, analyzer), bounded queue, per-tenant
  token buckets — every "no" is an immediate ``reject`` frame with a
  ``retry_after`` hint, never an unbounded buffer;
- the **warm worker pool** (:mod:`repro.service.pool`) executing jobs as
  single-shard runs through the *existing* engine —
  :func:`repro.experiments.executor.execute_shard` with the job's
  deadline riding on ``ShardTask.shard_timeout`` and any chaos plan
  installed exactly as the batch engine installs it, so a service job's
  outcome is bit-identical to the same cell computed by ``run_matrix``.

Durability has one path: every daemon is a replica of a cluster
(:mod:`repro.service.ledger`), and a lone daemon is a one-replica cluster
over ``<socket>.cluster``.  Jobs are journaled in the ledger and owned
through the fenced leases it records, committed cells live in the
ledger's ``done`` records (the result store is their fold, keyed by the
daemon's recipe and the job's run seed), and tenant quotas are ledger
debits.  The daemon writes no other file.  Graceful drain (SIGTERM/SIGINT
or the ``drain`` op) first lets the workers finish, then journals
``drained`` for every job it still holds a lease on; a restarted daemon
adopts those jobs, keeping their ids, before it listens, and serves
already-committed cells from the ledger — so a kill-and-restart loses
nothing and recomputes nothing it already had, the service-mode
counterpart of ``run_matrix``'s resume-from-flushed-shards guarantee.  A
store hit takes no lease and writes no job record: it has nothing to
recover.

Threading discipline: all job bookkeeping (``_jobs``, watchers) mutates
only on the event-loop thread.  Worker threads hand results over through
a thread-safe deque plus ``call_soon_threadsafe``; at shutdown the drain
path empties that deque synchronously so a result that landed during the
last tick is committed, not lost.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import chaos
from repro.benchmarks.cache import load_benchmark
from repro.benchmarks.faults import FaultySpec
from repro.chaos.plan import FaultPlan
from repro.experiments.executor import (
    ShardTask,
    execute_shard,
    timeout_shard_result,
)
from repro.llm.prompts import RepairHints
from repro.obs.metrics import percentile
from repro.repair import registry
from repro.service.admission import AdmissionController
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.ledger import (
    ClusterStore,
    DuplicateCommitError,
    HeartbeatLoop,
    StaleWriterError,
)
from repro.service.protocol import (
    PROTOCOL_SCHEMA,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    JobState,
    ProtocolError,
    ServiceError,
    ack_frame,
    decode_message,
    encode_message,
    error_frame,
    event_frame,
    reject_frame,
)

_SIZE_WEIGHT = 1e-6
"""Fallback cost per source character for longest-first dispatch, used
when the store holds no timings for the spec — small enough that any real
measurement dominates it."""

_RECLAIM_INTERVAL = 0.5
"""Seconds between a cluster replica's scans for orphaned jobs to adopt."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that defines one daemon instance."""

    socket: str
    benchmark: str = "arepair"
    scale: float = 1.0
    seed: int = 0
    workers: int = 2
    max_queue: int = 64
    bucket_capacity: float = 8.0
    bucket_refill: float = 4.0
    job_timeout: float | None = 30.0
    """Per-job wall-clock deadline, enforced exactly like
    ``RunConfig.shard_timeout``: cooperatively between cells inside the
    worker, and by the pool's wedge watchdog for jobs that stop
    cooperating."""
    chaos: FaultPlan | None = None
    """Fault-injection plan installed around every job execution — how
    ``repro chaos --service`` drills the live daemon."""
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    cluster_dir: str | None = None
    """The cluster directory this daemon is a replica of: jobs are
    journaled in its ledger, owned via the leases it records, committed
    to it, and rate-limited by the quota debits it records
    (:mod:`repro.service.ledger`).  Default ``<socket>.cluster``: a lone
    daemon is a one-replica cluster."""
    replica_id: str | None = None
    """This replica's name in the cluster; default ``r<pid>``."""
    lease_ttl: float = 5.0
    """Seconds a lease lives without renewal before peers may adopt; the
    heartbeat renews every ``lease_ttl / 3``."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be > 0, got {self.job_timeout}"
            )
        if self.bucket_capacity <= 0:
            raise ValueError(
                f"bucket_capacity must be > 0, got {self.bucket_capacity}"
            )
        if self.bucket_refill < 0:
            raise ValueError(
                f"bucket_refill must be >= 0, got {self.bucket_refill}"
            )
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {self.lease_ttl}")

    def resolved_cluster_dir(self) -> Path:
        if self.cluster_dir is not None:
            return Path(self.cluster_dir)
        return Path(f"{self.socket}.cluster")

    def resolved_replica_id(self) -> str:
        if self.replica_id is not None:
            return self.replica_id
        return f"r{os.getpid()}"


def store_recipe(config: ServiceConfig) -> dict:
    """Everything besides the job's run seed that changes cell *values*.
    With the run seed it keys the stored cells, so a chaos daemon never
    poisons (or borrows from) a clean one's store, and every replica of
    one cluster agrees on the key."""
    return {
        "b": config.benchmark,
        "s": config.seed,
        "sc": config.scale,
        "ch": config.chaos.digest() if config.chaos else None,
    }


class ReproService:
    """The daemon.  Construct, then ``await serve()`` (or use
    :class:`ServiceHandle` to host it on a background thread)."""

    def __init__(
        self,
        config: ServiceConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self._specs: dict[str, FaultySpec] = {
            spec.spec_id: spec
            for spec in load_benchmark(
                config.benchmark, seed=config.seed, scale=config.scale
            )
        }
        self.replica_id = config.resolved_replica_id()
        self.cluster = ClusterStore(
            config.resolved_cluster_dir(),
            self.replica_id,
            store_recipe(config),
            ttl=config.lease_ttl,
            jitter_seed=config.seed,
            bucket_capacity=config.bucket_capacity,
            bucket_refill=config.bucket_refill,
        )
        self._heartbeat = HeartbeatLoop(
            self.cluster, on_lost=self._on_lease_lost
        )
        self.admission = AdmissionController(
            self.cluster, max_queue=config.max_queue
        )
        self.breakers = {
            "llm": CircuitBreaker("llm", config.breaker, clock=clock),
            "analyzer": CircuitBreaker("analyzer", config.breaker, clock=clock),
        }
        from repro.service.pool import WorkerPool

        self.pool = WorkerPool(
            workers=config.workers,
            runner=self._execute,
            on_result=self._post_result,
            deadline=config.job_timeout,
        )
        self._jobs: dict[str, JobRecord] = {}
        self._watchers: dict[str, list[asyncio.Queue]] = {}
        self._results: collections.deque = collections.deque()
        self._seq = self._last_issued_seq()
        self.chaos_events: list[dict] = []
        """Every injected fault that fired in job executions (chaos
        daemons only) — the drill's audit trail."""
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._done: asyncio.Event | None = None
        self.started = threading.Event()
        self.adopted_jobs = 0
        """Orphaned cluster jobs this replica took over."""
        self.lease_losses = 0
        """Held leases the heartbeat discovered were fenced away."""

    # -- public surface -------------------------------------------------------

    @property
    def jobs(self) -> dict[str, JobRecord]:
        return self._jobs

    def jobs_corpus_ids(self) -> list[str]:
        """Spec ids of the loaded benchmark corpus."""
        return list(self._specs)

    @property
    def draining(self) -> bool:
        return self._draining

    async def serve(self) -> None:
        """Run until drained (signal or ``drain`` op)."""
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self._install_signal_handlers()
        # Adopt what a drained (or dead) predecessor left before taking
        # any submission, so its jobs keep their place and their ids.
        self._reclaim_orphans()
        socket_path = Path(self.config.socket)
        if socket_path.exists():
            socket_path.unlink()
        server = await asyncio.start_unix_server(
            self._handle_connection, path=str(socket_path)
        )
        self._heartbeat.start()
        health = asyncio.ensure_future(self._health_loop())
        self.started.set()
        try:
            await self._done.wait()
        finally:
            health.cancel()
            server.close()
            await server.wait_closed()
            # Workers finish first, while the heartbeat still renews their
            # leases, so a result landing in the join commits instead of
            # being fenced behind a ``drained`` record.
            self.pool.stop()
            self._heartbeat.stop()
            self._hand_off()
            with contextlib.suppress(OSError):
                socket_path.unlink()

    async def request_drain(self, grace: float = 5.0) -> None:
        """Graceful shutdown: stop admitting, give running jobs ``grace``
        seconds to land, then hand everything non-terminal back to the
        ledger."""
        if self._draining:
            return
        self._draining = True
        deadline = time.monotonic() + grace
        while self.pool.running() > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        assert self._done is not None
        self._done.set()

    # -- submission path ------------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord | None, dict]:
        """Admit (or reject) one submission.  Loop-thread only."""
        frame = self._gate(spec)
        if frame is not None:
            return None, frame
        if spec.benchmark not in ("adhoc", self.config.benchmark):
            return None, error_frame(
                f"this daemon serves {self.config.benchmark!r}, "
                f"not {spec.benchmark!r}",
                code="service.wrong_benchmark",
            )
        if spec.benchmark != "adhoc" and spec.spec_id not in self._specs:
            return None, error_frame(
                f"unknown spec {spec.spec_id!r}", code="service.unknown_spec"
            )
        unknown = [t for t in spec.techniques if not registry.is_registered(t)]
        if unknown:
            return None, error_frame(
                f"unknown technique(s): {', '.join(unknown)}",
                code="service.unknown_technique",
            )
        self._seq += 1
        job_id = f"job-{self.replica_id}-{self._seq:06d}"
        record = JobRecord(
            job_id=job_id, spec=spec, submitted_at=self.clock()
        )
        self._jobs[job_id] = record
        if spec.benchmark != "adhoc":
            row = self.cluster.lookup(spec.spec_id, spec.seed)
            if all(t in row for t in spec.techniques):
                # Store hit: every cell already committed by some
                # replica.  No lease, no journal record — nothing to
                # recover if this daemon dies now.
                record.from_store = True
                record.started_at = record.finished_at = record.submitted_at
                record.outcomes = {t: dict(row[t]) for t in spec.techniques}
                record.state = JobState.DONE
                return record, ack_frame(job_id, record.state)
        # Journal the submission and take the lease in one atomic cluster
        # lock step: the job is durable before it is acked.
        record.lease_token = self.cluster.register(job_id, spec.to_json())
        self.pool.submit(
            record, priority=spec.priority, cost=self._cost(spec)
        )
        return record, ack_frame(job_id, record.state)

    def _last_issued_seq(self) -> int:
        """The highest job number this replica id has in the ledger, so a
        restarted replica never re-issues an id a previous incarnation
        journaled (its commit would collide with the old job's)."""
        prefix = f"job-{self.replica_id}-"
        return max(
            (
                int(job_id[len(prefix):])
                for job_id in self.cluster.fold().jobs
                if job_id.startswith(prefix) and job_id[len(prefix):].isdigit()
            ),
            default=0,
        )

    def _gate(self, spec: JobSpec) -> dict | None:
        """The rejection pipeline: drain, breakers, queue, rate limit."""
        if self._draining:
            return reject_frame("draining", 1.0)
        if spec.needs_llm and not self.breakers["llm"].allow():
            return reject_frame(
                "breaker_open:llm",
                max(self.breakers["llm"].retry_after(), 0.1),
            )
        if not self.breakers["analyzer"].allow():
            return reject_frame(
                "breaker_open:analyzer",
                max(self.breakers["analyzer"].retry_after(), 0.1),
            )
        verdict = self.admission.admit(spec.tenant, self.pool.queued())
        if not verdict.admitted:
            return reject_frame(verdict.reason, verdict.retry_after)
        return None

    def _cost(self, spec: JobSpec) -> float:
        """Longest-first estimate: historical per-cell seconds from the
        store when available, else the source-size proxy."""
        if spec.benchmark != "adhoc":
            row = self.cluster.lookup(spec.spec_id, spec.seed)
            known = sum(cell.get("elapsed", 0.0) for cell in row.values())
            if known > 0:
                return known
        source = spec.source
        if source is None:
            faulty = self._specs.get(spec.spec_id)
            source = faulty.faulty_source if faulty is not None else ""
        return len(source) * _SIZE_WEIGHT

    # -- execution (worker threads) -------------------------------------------

    def _faulty_spec(self, spec: JobSpec) -> FaultySpec:
        if spec.benchmark != "adhoc":
            return self._specs[spec.spec_id]
        assert spec.source is not None
        return FaultySpec(
            spec_id=spec.spec_id,
            benchmark="adhoc",
            domain="adhoc",
            model_name=spec.spec_id,
            faulty_source=spec.source,
            truth_source=spec.source,
            fault_description="",
            depth=0,
            hints=RepairHints(),
        )

    def _task_for(self, record: JobRecord, techniques: tuple[str, ...]) -> ShardTask:
        return ShardTask(
            spec=self._faulty_spec(record.spec),
            techniques=techniques,
            seed=record.spec.seed,
            shard_timeout=self.config.job_timeout,
            chaos=self.config.chaos,
        )

    def _execute(self, record: JobRecord):
        """Worker-thread entry: run the job's missing cells as one shard."""
        self._mark_running(record)
        self.cluster.mark_running(record.job_id, record.lease_token)
        techniques = record.spec.techniques
        if record.spec.benchmark != "adhoc":
            techniques = self.cluster.missing(
                record.spec.spec_id, record.spec.seed, record.spec.techniques
            )
        if not techniques:
            return None  # everything landed in the store since admission
        return execute_shard(self._task_for(record, techniques))

    def _mark_running(self, record: JobRecord) -> None:
        started = self.clock()

        def mark() -> None:
            if record.terminal:  # the wedge watchdog won the race
                return
            record.started_at = started
            record.state = JobState.RUNNING
            self._publish(record)

        self._call_on_loop(mark)

    def _post_result(self, record, result, error) -> None:
        """Worker-thread exit: hand the result to the loop thread."""
        self._results.append((record, result, error))
        self._call_on_loop(self._drain_results)

    def _call_on_loop(self, callback) -> None:
        loop = self._loop
        if loop is None:
            callback()
            return
        try:
            loop.call_soon_threadsafe(callback)
        except RuntimeError:
            # Loop already closed (shutdown race): the drain path
            # empties the deque synchronously, nothing is lost.
            pass

    # -- completion (loop thread) ---------------------------------------------

    def _drain_results(self) -> None:
        while self._results:
            record, result, error = self._results.popleft()
            self._finish_job(record, result, error)

    def _finish_job(self, record: JobRecord, result, error) -> None:
        if record.terminal:
            return  # late result for a job the watchdog already settled
        record.finished_at = self.clock()
        if record.started_at is None:
            record.started_at = record.finished_at
        if error is not None:
            message = f"[{type(error).__name__}] {error}"
            try:
                self.cluster.commit_failed(
                    record.job_id, record.lease_token, message
                )
            except (StaleWriterError, DuplicateCommitError):
                self._settle_from_ledger(record)
                return
            record.state = JobState.FAILED
            record.error = message
            self._publish(record)
            return
        if result is not None:
            self.chaos_events.extend(result.chaos_events)
            record.failures = [f.to_json() for f in result.failures]
            self._feed_breakers(record, result)
        record.outcomes = self._assemble_outcomes(record, result)
        # The at-most-once boundary: a stale or duplicate commit is
        # rejected under the cluster lock, and the record settles from
        # whatever the winning replica committed instead.  Corpus cells
        # are stored under the job's run seed.
        try:
            self.cluster.commit(
                record.job_id,
                record.spec.spec_id,
                record.outcomes,
                record.lease_token,
                executed=result is not None,
                chaos_events=(
                    list(result.chaos_events) if result is not None else []
                ),
                seed=(
                    None if record.spec.benchmark == "adhoc"
                    else record.spec.seed
                ),
            )
        except (StaleWriterError, DuplicateCommitError):
            self._settle_from_ledger(record)
            return
        record.state = JobState.DONE
        self._publish(record)

    def _settle_from_ledger(self, record: JobRecord) -> None:
        """This replica's commit was fenced or duplicate: the job belongs
        to (or was finished by) another replica.  Settle the local record
        from the ledger so watchers still get the committed — and
        therefore byte-identical — payload."""
        view = self.cluster.fold().jobs.get(record.job_id)
        if view is not None and view.terminal:
            self._apply_ledger_terminal(record, view)
            return
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.create_task(self._await_ledger_terminal(record))
                return
            except RuntimeError:  # pragma: no cover - shutdown race
                pass
        # No loop to wait on (shutdown): leave the record non-terminal;
        # the drain journaling hands the job to the surviving replicas.

    def _apply_ledger_terminal(self, record: JobRecord, view) -> None:
        if record.terminal:
            return
        record.finished_at = self.clock()
        if record.started_at is None:
            record.started_at = record.finished_at
        if view.state == "done":
            record.outcomes = {
                t: dict(cell) for t, cell in view.outcomes.items()
            }
            record.state = JobState.DONE
        else:
            record.state = JobState.FAILED
            record.error = view.error or "failed on another replica"
        self._publish(record)

    async def _await_ledger_terminal(self, record: JobRecord) -> None:
        while not record.terminal:
            await asyncio.sleep(0.05)
            view = self.cluster.fold().jobs.get(record.job_id)
            if view is not None and view.terminal:
                self._apply_ledger_terminal(record, view)
                return

    def _assemble_outcomes(self, record: JobRecord, result) -> dict:
        """Cell payloads for every requested technique: fresh results
        first, store cells for anything computed earlier."""
        cells: dict[str, dict] = {}
        fresh = result.outcomes if result is not None else {}
        stored: dict = {}
        if record.spec.benchmark != "adhoc":
            stored = self.cluster.lookup(record.spec.spec_id, record.spec.seed)
        for technique in record.spec.techniques:
            outcome = fresh.get(technique)
            if outcome is not None:
                cells[technique] = {
                    "rep": outcome.rep,
                    "tm": outcome.tm,
                    "sm": outcome.sm,
                    "status": outcome.status,
                    "elapsed": outcome.elapsed,
                    "error_code": outcome.error_code,
                }
                continue
            cell = stored.get(technique)
            if cell is not None:
                cells[technique] = dict(cell)
        return cells

    def _feed_breakers(self, record: JobRecord, result) -> None:
        """Classified-error routing: llm.* feeds the LLM breaker;
        analyzer/solver/spec classes feed the analyzer breaker; healthy
        cells count as successes on every breaker their path crossed."""
        llm = self.breakers["llm"]
        analyzer = self.breakers["analyzer"]

        def route(code: str | None) -> None:
            if code is None:
                return
            if code.startswith("llm."):
                llm.record_failure(code)
            elif code.startswith(("analysis.", "solver.", "spec.")):
                analyzer.record_failure(code)

        for failure in result.failures:
            route(failure.code)
        from repro.service.protocol import uses_llm

        for technique, outcome in result.outcomes.items():
            if outcome.status in ("error", "crashed"):
                route(outcome.error_code)
            elif outcome.status != "timeout":
                analyzer.record_success()
                if uses_llm(technique):
                    llm.record_success()

    def _publish(self, record: JobRecord) -> None:
        queues = self._watchers.get(record.job_id)
        if not queues:
            return
        frame = event_frame(record)
        for queue in list(queues):
            queue.put_nowait(frame)

    # -- health ---------------------------------------------------------------

    async def _health_loop(self) -> None:
        last_reclaim = time.monotonic()
        while True:
            await asyncio.sleep(0.1)
            self._reap_wedged()
            if time.monotonic() - last_reclaim >= _RECLAIM_INTERVAL:
                last_reclaim = time.monotonic()
                self._reclaim_orphans()

    def _on_lease_lost(self, job_id: str) -> None:
        """Heartbeat callback (heartbeat thread): a held lease was fenced
        away.  Only counted — the commit path enforces the fence."""
        self.lease_losses += 1

    def _reclaim_orphans(self) -> None:
        """Adopt every orphaned cluster job (expired lease, drained, or
        torn submission) and run it through the same ``execute_shard``
        path, so a failed-over cell is byte-identical to an
        uninterrupted one."""
        if self._draining:
            return
        for job_id, payload, token in self.cluster.adopt_orphans():
            try:
                spec = JobSpec.from_json(payload)
            except ProtocolError:
                continue
            record = self._jobs.get(job_id)
            if record is not None and record.terminal:
                continue
            if record is None:
                record = JobRecord(
                    job_id=job_id, spec=spec, submitted_at=self.clock()
                )
                self._jobs[job_id] = record
            record.adopted = True
            record.lease_token = token
            self.adopted_jobs += 1
            self.pool.submit(
                record, priority=spec.priority, cost=self._cost(spec)
            )

    def _reap_wedged(self) -> None:
        for record in self.pool.reap_wedged():
            techniques = record.spec.techniques
            task = self._task_for(record, techniques)
            allowance = self.pool.allowance()
            result = timeout_shard_result(
                task,
                f"service worker for {record.job_id} exceeded the "
                f"{allowance:g}s watchdog allowance; worker replaced",
            )
            self._finish_job(record, result, None)

    # -- durability -----------------------------------------------------------

    def _hand_off(self) -> None:
        """The drain, once the pool has stopped: commit whatever landed,
        then journal ``drained`` for every job this replica still holds a
        lease on, so the next daemon on this cluster (a restart, or a live
        peer) adopts it."""
        self._drain_results()
        self.pool.drain_pending()
        self.cluster.drain()

    # -- wire front end -------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.request_drain()),
                )
            except (ValueError, NotImplementedError, RuntimeError):
                # Not the main thread (test/drill hosting): the harness
                # calls request_drain() directly instead.
                return

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    message = decode_message(line)
                except ProtocolError as error:
                    await self._send(
                        writer, error_frame(str(error), code=error.code)
                    )
                    continue
                try:
                    await self._dispatch(message, writer)
                except (ConnectionError, BrokenPipeError):
                    return
                except Exception as error:  # noqa: BLE001 - connection guard
                    await self._send(
                        writer,
                        error_frame(f"{type(error).__name__}: {error}"),
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send(self, writer, frame: dict) -> None:
        writer.write(encode_message(frame))
        await writer.drain()

    async def _dispatch(self, message: dict, writer) -> None:
        op = message.get("op")
        if op == "ping":
            pong = {
                "type": "pong",
                "schema": PROTOCOL_SCHEMA,
                "benchmark": self.config.benchmark,
                "draining": self._draining,
                "replica": self.replica_id,
                "cluster_dir": str(self.config.resolved_cluster_dir()),
            }
            await self._send(writer, pong)
        elif op == "submit":
            await self._op_submit(message, writer)
        elif op == "status":
            await self._op_status(message, writer)
        elif op == "jobs":
            await self._send(
                writer,
                {
                    "type": "jobs",
                    "jobs": [
                        record.summary()
                        for _, record in sorted(self._jobs.items())
                    ],
                },
            )
        elif op == "stats":
            await self._send(writer, {"type": "stats", "stats": self.stats()})
        elif op == "drain":
            grace = float(message.get("grace", 5.0))
            asyncio.ensure_future(self.request_drain(grace))
            await self._send(writer, {"type": "draining"})
        else:
            await self._send(
                writer,
                error_frame(f"unknown op {op!r}", code="service.protocol"),
            )

    async def _op_submit(self, message: dict, writer) -> None:
        try:
            spec = JobSpec.from_json(message.get("job", {}))
        except (ProtocolError, ValueError) as error:
            await self._send(
                writer, error_frame(str(error), code="service.protocol")
            )
            return
        record, frame = self.submit(spec)
        watch = record is not None and message.get("watch", True)
        if watch and record.terminal:
            # A store hit: the ack and the terminal event leave together.
            writer.write(
                encode_message(frame) + encode_message(event_frame(record))
            )
            await writer.drain()
            return
        await self._send(writer, frame)
        if not watch:
            return
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(record.job_id, []).append(queue)
        try:
            while True:
                frame = await queue.get()
                await self._send(writer, frame)
                if frame.get("state") in TERMINAL_STATES:
                    return
        finally:
            watchers = self._watchers.get(record.job_id, [])
            if queue in watchers:
                watchers.remove(queue)
            if not watchers:
                self._watchers.pop(record.job_id, None)

    async def _op_status(self, message: dict, writer) -> None:
        job_id = message.get("job_id")
        record = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if record is None:
            frame = (
                self._ledger_status(job_id) if isinstance(job_id, str) else None
            )
            if frame is None:
                frame = error_frame(
                    f"unknown job {job_id!r}", code="service.unknown_job"
                )
            await self._send(writer, frame)
            return
        frame = {"type": "status", **record.summary()}
        if record.terminal:
            frame["outcomes"] = record.outcomes
            frame["failures"] = record.failures
        await self._send(writer, frame)

    _LEDGER_STATES = {
        "submitted": "queued",
        "leased": "queued",
        "drained": "queued",
        "running": "running",
        "done": "done",
        "failed": "failed",
    }

    def _ledger_status(self, job_id: str) -> dict | None:
        """Answer ``status`` for a job this replica never saw locally, from
        the shared ledger — what lets a failed-over client finish its
        watch against any surviving replica."""
        view = self.cluster.fold().jobs.get(job_id)
        if view is None:
            return None
        frame = {
            "type": "status",
            "job_id": job_id,
            "state": self._LEDGER_STATES.get(view.state, "queued"),
            "from_ledger": True,
        }
        if view.adoptions:
            frame["adopted"] = True
        if view.state == "done":
            frame["outcomes"] = {
                t: dict(cell) for t, cell in view.outcomes.items()
            }
            frame["failures"] = []
            frame["from_store"] = not view.executed
        elif view.state == "failed":
            frame["error"] = view.error
        return frame

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        states: dict[str, int] = {}
        waits: list[float] = []
        for record in self._jobs.values():
            states[record.state.value] = states.get(record.state.value, 0) + 1
            wait = record.queue_wait
            if wait is not None:
                waits.append(wait)
        return {
            "benchmark": self.config.benchmark,
            "draining": self._draining,
            "queued": self.pool.queued(),
            "running": self.pool.running(),
            "jobs_by_state": dict(sorted(states.items())),
            "admission": self.admission.snapshot(),
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self.breakers.items())
            },
            "pool": {
                "executed": self.pool.executed,
                "wedged": self.pool.wedged,
                "replaced": self.pool.replaced,
                "workers": self.pool.health(),
            },
            "queue_wait": {
                "count": len(waits),
                "p50": round(percentile(waits, 0.50), 6),
                "p99": round(percentile(waits, 0.99), 6),
            },
            "cluster": {
                **self.cluster.snapshot(),
                "adopted_jobs": self.adopted_jobs,
                "lease_losses": self.lease_losses,
                "heartbeats": self._heartbeat.beats,
            },
        }


class ServiceHandle:
    """Host a daemon on a background thread — the harness used by tests,
    the drills, and the self-contained load generator.

    ``repro serve`` does *not* use this: the CLI runs the daemon on the
    main thread so real SIGTERM/SIGINT reach the loop's signal handlers.
    """

    def __init__(self, service: ReproService, thread: threading.Thread) -> None:
        self.service = service
        self.thread = thread

    @classmethod
    def start(
        cls,
        config: ServiceConfig,
        clock: Callable[[], float] = time.monotonic,
        timeout: float = 60.0,
    ) -> "ServiceHandle":
        service = ReproService(config, clock=clock)
        thread = threading.Thread(
            target=lambda: asyncio.run(service.serve()),
            name="repro-service-host",
            daemon=True,
        )
        thread.start()
        if not service.started.wait(timeout=timeout):
            raise ServiceError("service failed to start listening")
        return cls(service, thread)

    @property
    def socket(self) -> str:
        return self.service.config.socket

    def drain(self, grace: float = 5.0, timeout: float = 60.0) -> None:
        loop = self.service._loop
        assert loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.service.request_drain(grace), loop
        )
        future.result(timeout=timeout)
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():
            raise ServiceError("service thread failed to stop after drain")
