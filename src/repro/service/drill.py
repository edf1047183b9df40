"""``repro chaos --service`` — the drills of the live daemon.

The batch-engine drills (:mod:`repro.chaos.harness`) prove the *engine's*
contracts under injected faults; these prove the *daemon's*.  Every
daemon is a one-replica cluster, so one suite drills it alone and as a
fleet, in this order:

- **service-availability** — a client fleet submits the whole corpus to a
  daemon whose executions run under every fault site that can fire in
  one (all but the two ``persist.*`` sites: the daemon writes no JSON
  file).  The SLO: every accepted job reaches a terminal state (no
  lost jobs), every DONE job's cells are bit-identical to a direct
  engine execution under the same plan (no corrupted results — faults
  degrade cells, never falsify them), p99 queue wait stays bounded, and
  the fault schedule matches the reference run's exactly (the service
  adds no nondeterminism);
- **service-backpressure** — with the pool paused, the queue bound and a
  starved tenant bucket reject deterministically, every rejection carries
  a positive ``retry_after``, a full queue never consumes the tenant's
  tokens, and everything admitted completes once the pool resumes;
- **service-breaker** — an LLM backend failing past the retry budget
  trips the LLM breaker after the configured window; further LLM jobs
  fast-fail with ``breaker_open:llm`` while traditional repair continues
  unaffected;
- **cluster-failover** — two ``repro serve`` subprocess replicas share a
  cluster directory; the whole corpus is submitted under the full fault
  plan, then a seeded victim replica is ``kill -9``'d the moment it has
  a job mid-execution.  The SLO: zero lost jobs (the survivor adopts and
  re-executes every orphan), zero double-committed cells, a strictly
  monotonic fencing-token trail, and every committed cell bit-identical
  to an uninterrupted direct engine execution under the same plan.

Contracts that hold without an injected fault are pinned by tier-1 tests
alone: drain and adoption by ``TestDrainResume`` in
``tests/test_service.py``, the breaker's half-open recovery by
``TestCircuitBreaker`` there, and the lease, fencing, ledger and quota
edge cases by ``tests/test_cluster.py``.  service-backpressure stays: no
tier-1 test drives the admission gates over a socket.

service-availability and cluster-failover check against one reference:
the direct engine execution of the whole corpus under the same plan,
computed once per suite run.

Reports follow the chaos-report contract: canonical JSON, no timestamps,
durations, or counts that depend on thread timing — two same-seed runs
are byte-identical (CI pins this with a double-run ``cmp``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

from repro.benchmarks.cache import load_benchmark
from repro.chaos.harness import (
    DrillResult,
    Suite,
    _events_by_site,
    _temp_cache,
    outcome_row,
    run_suite,
)
from repro.chaos.plan import FaultPlan, SiteConfig
from repro.experiments.executor import ShardTask, execute_shard
from repro.service.breaker import BreakerConfig
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, ServiceHandle
from repro.service.ledger import ClusterFold, JobLedger
from repro.service.loadgen import run_load
from repro.service.protocol import JobSpec, ServiceError

SERVICE_CHAOS_SCHEMA = "repro-service-chaos/4"
"""Stamped into every service chaos report; bump on any shape change."""

AVAILABILITY_SITES: dict[str, SiteConfig] = {
    "sat.budget": SiteConfig(probability=0.05, max_fires=2),
    "sat.flip": SiteConfig(probability=0.05, max_fires=2),
    "analyzer.explode": SiteConfig(probability=0.03, max_fires=1),
    "repair.crash": SiteConfig(probability=0.25, max_fires=3),
    "llm.transient": SiteConfig(probability=0.3, max_fires=2),
    "llm.garbage": SiteConfig(probability=0.3, max_fires=2),
    "llm.truncate": SiteConfig(probability=0.3, max_fires=2),
}
"""The seven sites a job execution crosses, tuned so each fires somewhere
across the corpus while most cells stay healthy.  The ``persist.*``
sites damage atomic JSON writes, and the daemon makes none: its one
file is the ledger.  ``llm.transient`` stays under the retry budget
(``max_fires=2`` against 3 attempts) so transient faults are absorbed,
not surfaced — the availability drill's point."""

AVAILABILITY_TECHNIQUES = ("ATR", "BeAFix", "Single-Round_Pass")
"""Solver, analyzer, repair loop, and LLM transport all on some path."""

QUEUE_WAIT_SLO_P99 = 30.0
"""Seconds.  Generous — the assertion is boundedness, not speed."""

SERVICE_SUITE = Suite(
    schema=SERVICE_CHAOS_SCHEMA,
    title="SERVICE CHAOS",
    held="availability and failover invariants held",
    header=("seed", "scale", "replicas"),
    report_file="service-chaos-report.json",
    sites=frozenset(AVAILABILITY_SITES),
)

Reference = Callable[
    [tuple[str, ...], FaultPlan | None], tuple[dict, list[dict]]
]
"""The direct engine execution of some specs under a plan: their cell
payloads and fault schedule."""


def _cells_payload(outcomes: dict[str, dict]) -> dict:
    """The determinism-relevant projection of service cell payloads."""
    return {
        technique: {
            "rep": cell["rep"],
            "tm": round(cell["tm"], 9),
            "sm": round(cell["sm"], 9),
            "status": cell["status"],
        }
        for technique, cell in sorted(outcomes.items())
    }


def _corpus_reference(seed: int, scale: float) -> Reference:
    """The reference service-availability and cluster-failover share:
    the :data:`AVAILABILITY_TECHNIQUES` cells of some specs under a plan,
    run directly through the engine, with no deadline, in a fresh cache
    the first time they are asked for, then kept for the suite run."""

    @functools.cache
    def reference(
        spec_ids: tuple[str, ...], plan: FaultPlan | None
    ) -> tuple[dict, list[dict]]:
        payload: dict[str, dict] = {}
        events: list[dict] = []
        with _temp_cache():
            specs = {
                spec.spec_id: spec
                for spec in load_benchmark("arepair", seed=seed, scale=scale)
            }
            for spec_id in spec_ids:
                result = execute_shard(
                    ShardTask(
                        spec=specs[spec_id],
                        techniques=AVAILABILITY_TECHNIQUES,
                        seed=seed,
                        chaos=plan,
                    )
                )
                events.extend(result.chaos_events)
                payload[spec_id] = outcome_row(result.outcomes)
        return payload, events

    return reference


def _availability_plan(seed: int, active: list[str]) -> FaultPlan | None:
    """The ``active`` availability sites as one plan; ``None`` if none."""
    if not active:
        return None
    return FaultPlan(
        seed=seed, sites={site: AVAILABILITY_SITES[site] for site in active}
    )


def _check_against_reference(
    drill: DrillResult,
    reference: tuple[dict, list[dict]],
    payload: dict,
    events: list[dict],
    cells: str,
    schedule: str,
) -> None:
    """Record where ``payload`` and its fault ``events`` diverge from
    the reference run: cell payloads first, then the fault schedule.
    ``cells`` and ``schedule`` name the checked side in violations."""
    reference_payload, reference_events = reference
    if payload != reference_payload:
        diverging = sorted(
            spec_id
            for spec_id in reference_payload
            if payload.get(spec_id) != reference_payload[spec_id]
        )
        drill.violations.append(
            f"{cells} diverge from direct execution for {diverging}"
        )
    if _events_by_site(events) != _events_by_site(reference_events):
        drill.violations.append(
            f"{schedule} fault schedule diverges from the reference run: "
            f"{_events_by_site(events)} != {_events_by_site(reference_events)}"
        )


def _socket_dir() -> tempfile.TemporaryDirectory:
    # Unix socket paths are length-limited (~108 bytes); a short /tmp dir
    # keeps the drill independent of how deep REPRO_CACHE_DIR nests.
    return tempfile.TemporaryDirectory(prefix="repro-svc-")


def availability_drill(
    seed: int, requested: set[str], scale: float, reference: Reference
) -> DrillResult:
    """The headline SLO: no lost jobs, no corrupted results, bounded p99,
    deterministic fault schedule — under all seven sites at once."""
    drill = DrillResult(name="service-availability")
    active = sorted(requested & set(AVAILABILITY_SITES))
    plan = _availability_plan(seed, active)
    if plan is None:
        drill.skipped = True
        return drill
    with _temp_cache(), _socket_dir() as sock_dir:
        config = ServiceConfig(
            socket=str(Path(sock_dir) / "drill.sock"),
            benchmark="arepair",
            scale=scale,
            seed=seed,
            workers=4,
            max_queue=8,
            bucket_capacity=4.0,
            bucket_refill=50.0,
            job_timeout=None,
            chaos=plan,
        )
        handle = ServiceHandle.start(config)
        service = handle.service
        spec_ids = sorted(service.jobs_corpus_ids())
        try:
            ledger = run_load(
                config,
                clients=len(spec_ids),
                jobs_per_client=1,
                techniques=AVAILABILITY_TECHNIQUES,
                handle=handle,
            )
            records = {
                record.spec.spec_id: record
                for record in service.jobs.values()
            }
            service_payload = {
                spec_id: _cells_payload(record.outcomes)
                for spec_id, record in sorted(records.items())
            }
            service_events = list(service.chaos_events)
            stats = service.stats()
        finally:
            handle.drain()

    if ledger["lost"] != 0:
        drill.violations.append(f"{ledger['lost']} accepted job(s) lost")
    if ledger["failed"] != 0:
        drill.violations.append(
            f"{ledger['failed']} job(s) FAILED — faults must degrade "
            "cells, not kill jobs"
        )
    if ledger["incomplete"]:
        drill.violations.append(
            f"terminal events missing cells: {ledger['incomplete']}"
        )
    if ledger["client_errors"]:
        drill.violations.append(
            f"client-visible errors: {ledger['client_errors'][:3]}"
        )
    if ledger["bad_retry_after"]:
        drill.violations.append(
            f"{ledger['bad_retry_after']} rejection(s) without a positive "
            "retry_after hint"
        )

    _check_against_reference(
        drill,
        reference(tuple(spec_ids), plan),
        service_payload,
        service_events,
        cells="service results",
        schedule="service",
    )
    fired = {event["site"] for event in service_events}
    for site in active:
        if site not in fired:
            drill.violations.append(
                f"site {site} never fired — the drill proved nothing "
                "about it"
            )
    p99 = stats["queue_wait"]["p99"]
    if p99 > QUEUE_WAIT_SLO_P99:
        drill.violations.append(
            f"p99 queue wait {p99:.3f}s exceeds the {QUEUE_WAIT_SLO_P99}s SLO"
        )
    drill.detail = {
        "sites": active,
        "jobs": len(spec_ids),
        "techniques": list(AVAILABILITY_TECHNIQUES),
        "events_by_site": _events_by_site(service_events),
        "lost": ledger["lost"],
        "p99_within_slo": p99 <= QUEUE_WAIT_SLO_P99,
        "payload": service_payload,
    }
    return drill


def backpressure_drill(seed: int, scale: float) -> DrillResult:
    """Deterministic rejection behavior at both admission gates."""
    drill = DrillResult(name="service-backpressure")
    with _temp_cache(), _socket_dir() as sock_dir:
        config = ServiceConfig(
            socket=str(Path(sock_dir) / "drill.sock"),
            benchmark="arepair",
            scale=scale,
            seed=seed,
            workers=1,
            max_queue=3,
            bucket_capacity=2.0,
            bucket_refill=0.0,
            job_timeout=None,
        )
        handle = ServiceHandle.start(config)
        service = handle.service
        client = ServiceClient(handle.socket)
        spec_id = sorted(service.jobs_corpus_ids())[0]

        def job(tenant: str) -> JobSpec:
            return JobSpec(
                benchmark="arepair",
                spec_id=spec_id,
                techniques=("ATR",),
                seed=seed,
                tenant=tenant,
            )

        submissions = []

        def submit(tenant: str, watch: bool = False):
            outcome = client.submit(job(tenant), watch=watch)
            submissions.append(outcome)
            return outcome

        try:
            service.pool.pause()
            for index in range(2):
                outcome = submit("bulk")
                if not outcome.accepted:
                    drill.violations.append(
                        f"bulk submission #{index} rejected with tokens and "
                        f"queue space available: {outcome.rejections}"
                    )
            third = submit("bulk")
            if third.accepted:
                drill.violations.append(
                    "tenant with an empty bucket was admitted"
                )
            elif third.rejections[0].get("reason") != "rate_limited":
                drill.violations.append(
                    f"expected rate_limited, got {third.rejections[0]}"
                )
            other = submit("other")
            if not other.accepted:
                drill.violations.append(
                    f"fresh tenant rejected below the queue bound: "
                    f"{other.rejections}"
                )
            full = submit("other")
            if full.accepted:
                drill.violations.append("submission above max_queue admitted")
            elif full.rejections[0].get("reason") != "queue_full":
                drill.violations.append(
                    f"expected queue_full, got {full.rejections[0]}"
                )
            for name, rejection in (
                ("rate_limited", third),
                ("queue_full", full),
            ):
                if rejection.accepted:
                    continue
                if float(rejection.rejections[0].get("retry_after", 0)) <= 0:
                    drill.violations.append(
                        f"{name} rejection carried no positive retry_after"
                    )
            # The queue bound is checked before the bucket, so the
            # queue_full rejection must not have burned "other"'s token.
            tokens = service.cluster.balance("other")
            if tokens < 1.0:
                drill.violations.append(
                    "queue_full rejection consumed the tenant's token "
                    f"(bucket holds {tokens:g})"
                )
            service.pool.resume()
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if all(r.terminal for r in service.jobs.values()):
                    break
                time.sleep(0.02)
            states = sorted(
                record.state.value for record in service.jobs.values()
            )
            if states != ["done", "done", "done"]:
                drill.violations.append(
                    f"admitted jobs did not all complete: {states}"
                )
            after = submit("other", watch=True)
            if not after.accepted or after.state != "done":
                drill.violations.append(
                    "post-resume submission from the preserved-token tenant "
                    f"failed: accepted={after.accepted} state={after.state}"
                )
        finally:
            handle.drain()
    rejected: dict[str, int] = {}
    for outcome in submissions:
        for rejection in outcome.rejections:
            reason = str(rejection.get("reason"))
            rejected[reason] = rejected.get(reason, 0) + 1
    drill.detail = {
        "max_queue": config.max_queue,
        "bucket_capacity": config.bucket_capacity,
        "admitted": sum(outcome.accepted for outcome in submissions),
        "rejected": dict(sorted(rejected.items())),
    }
    return drill


def breaker_drill(seed: int, requested: set[str], scale: float) -> DrillResult:
    """An LLM outage trips the breaker; traditional repair is unaffected."""
    drill = DrillResult(name="service-breaker")
    if "llm.transient" not in requested:
        drill.skipped = True
        return drill
    # Unbounded transient faults: every LLM call fails even after the full
    # retry schedule, so each LLM cell lands as ERROR/llm.transient.
    plan = FaultPlan(
        seed=seed,
        sites={
            "llm.transient": SiteConfig(probability=1.0, max_fires=10**6)
        },
    )
    breaker_config = BreakerConfig(
        window=4, min_calls=2, failure_rate=0.5, cooldown=120.0
    )
    with _temp_cache(), _socket_dir() as sock_dir:
        config = ServiceConfig(
            socket=str(Path(sock_dir) / "drill.sock"),
            benchmark="arepair",
            scale=scale,
            seed=seed,
            workers=1,
            job_timeout=None,
            chaos=plan,
            breaker=breaker_config,
        )
        handle = ServiceHandle.start(config)
        service = handle.service
        client = ServiceClient(handle.socket)
        spec_ids = sorted(service.jobs_corpus_ids())
        try:
            for spec_id in spec_ids[:2]:
                outcome = client.submit(
                    JobSpec(
                        benchmark="arepair",
                        spec_id=spec_id,
                        techniques=("Single-Round_Pass",),
                        seed=seed,
                    ),
                    watch=True,
                )
                if not outcome.accepted or outcome.state != "done":
                    drill.violations.append(
                        f"LLM job on {spec_id} did not complete degraded: "
                        f"accepted={outcome.accepted} state={outcome.state}"
                    )
                    continue
                cell = outcome.outcomes.get("Single-Round_Pass", {})
                if cell.get("status") != "error" or (
                    cell.get("error_code") != "llm.transient"
                ):
                    drill.violations.append(
                        f"expected error/llm.transient cell on {spec_id}, "
                        f"got {cell.get('status')}/{cell.get('error_code')}"
                    )
            trip_failures = service.breakers["llm"].failures
            if service.breakers["llm"].state != "open":
                drill.violations.append(
                    "LLM breaker did not trip after two exhausted-retry "
                    f"failures (state: {service.breakers['llm'].state})"
                )
            gated = client.submit(
                JobSpec(
                    benchmark="arepair",
                    spec_id=spec_ids[2],
                    techniques=("Single-Round_Pass",),
                    seed=seed,
                ),
                watch=False,
            )
            if gated.accepted:
                drill.violations.append(
                    "LLM job admitted while the LLM breaker was open"
                )
            else:
                rejection = gated.rejections[0]
                if rejection.get("reason") != "breaker_open:llm":
                    drill.violations.append(
                        f"expected breaker_open:llm, got {rejection}"
                    )
                if float(rejection.get("retry_after", 0)) <= 0:
                    drill.violations.append(
                        "breaker rejection carried no positive retry_after"
                    )
            traditional = client.submit(
                JobSpec(
                    benchmark="arepair",
                    spec_id=spec_ids[0],
                    techniques=("ATR",),
                    seed=seed,
                ),
                watch=True,
            )
            if not traditional.accepted or traditional.state != "done":
                drill.violations.append(
                    "traditional repair was blocked by the LLM outage: "
                    f"accepted={traditional.accepted} "
                    f"state={traditional.state}"
                )
            if service.breakers["analyzer"].state != "closed":
                drill.violations.append(
                    "analyzer breaker tripped on an LLM-only outage"
                )
        finally:
            handle.drain()

    drill.detail = {"trip_after_failures": trip_failures}
    return drill


CLUSTER_REPLICAS = ("r0", "r1")
"""The failover drill's fleet: one victim, one survivor."""

CLUSTER_LEASE_TTL = 1.0
"""Short enough that failover completes in a couple of seconds."""


def _spawn_replica(
    replica: str,
    sock_dir: Path,
    cluster_dir: Path,
    seed: int,
    scale: float,
    plan_path: Path | None,
) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--socket", str(sock_dir / f"{replica}.sock"),
        "--benchmark", "arepair",
        "--scale", str(scale),
        "--seed", str(seed),
        "--workers", "2",
        "--max-queue", "64",
        "--bucket-capacity", "64",
        "--bucket-refill", "64",
        "--no-job-timeout",
        "--cluster-dir", str(cluster_dir),
        "--replica-id", replica,
        "--lease-ttl", str(CLUSTER_LEASE_TTL),
    ]
    if plan_path is not None:
        command += ["--chaos-plan", str(plan_path)]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    log = (sock_dir / f"{replica}.log").open("wb")
    return subprocess.Popen(
        command, env=env, stdout=log, stderr=subprocess.STDOUT
    )


def _failover_worker(
    index: int,
    spec: JobSpec,
    ring: list[str],
    results: dict,
    errors: list[str],
) -> None:
    """Submit one job with full recovery: ring failover on refused
    connects, whole-submission retry on pre-ack transport errors (a
    duplicate job for the same spec is fine — first commit wins), and
    status-poll reconnection after a mid-watch kill."""
    client = ServiceClient(ring, retry_seed=index, reconnect_attempts=600)
    last: Exception | None = None
    for _ in range(10):
        try:
            outcome = client.submit_retrying(
                spec, watch=True, max_attempts=120
            )
        except (ServiceError, OSError) as error:
            last = error
            time.sleep(0.2)
            continue
        results[spec.spec_id] = outcome
        return
    errors.append(f"{spec.spec_id}: {type(last).__name__}: {last}")


def cluster_failover_drill(
    seed: int, requested: set[str], scale: float, reference: Reference
) -> DrillResult:
    """Kill -9 a replica mid-job; assert the cluster's four invariants:
    zero lost jobs, zero double commits, monotonic fencing tokens, and
    byte-identical committed cells versus direct execution."""
    drill = DrillResult(name="cluster-failover")
    active = sorted(requested & set(AVAILABILITY_SITES))
    plan = _availability_plan(seed, active)
    digest = hashlib.sha256(f"{seed}:victim".encode()).digest()
    victim = CLUSTER_REPLICAS[
        int.from_bytes(digest[:4], "big") % len(CLUSTER_REPLICAS)
    ]
    survivor = next(r for r in CLUSTER_REPLICAS if r != victim)

    with _temp_cache(), _socket_dir() as tmp:
        sock_dir = Path(tmp)
        cluster_dir = sock_dir / "cluster"
        plan_path = None
        if plan is not None:
            plan_path = sock_dir / "plan.json"
            plan_path.write_text(json.dumps(plan.to_json()))
        spec_ids = sorted(
            spec.spec_id
            for spec in load_benchmark("arepair", seed=seed, scale=scale)
        )
        sockets = {
            replica: str(sock_dir / f"{replica}.sock")
            for replica in CLUSTER_REPLICAS
        }
        procs = {
            replica: _spawn_replica(
                replica, sock_dir, cluster_dir, seed, scale, plan_path
            )
            for replica in CLUSTER_REPLICAS
        }
        results: dict[str, object] = {}
        errors: list[str] = []
        orphaned: list[str] = []
        try:
            for replica in CLUSTER_REPLICAS:
                ServiceClient(sockets[replica], reconnect_attempts=120).ping()

            threads = []
            for index, spec_id in enumerate(spec_ids):
                primary = CLUSTER_REPLICAS[index % len(CLUSTER_REPLICAS)]
                ring = [sockets[primary]] + [
                    sockets[r] for r in CLUSTER_REPLICAS if r != primary
                ]
                spec = JobSpec(
                    benchmark="arepair",
                    spec_id=spec_id,
                    techniques=AVAILABILITY_TECHNIQUES,
                    seed=seed,
                    tenant=f"tenant-{index % 3}",
                )
                thread = threading.Thread(
                    target=_failover_worker,
                    args=(index, spec, ring, results, errors),
                    name=f"failover-{spec_id}",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)

            # Watch the shared ledger (lock-free incremental reads) for
            # the first job the victim starts *executing*, then SIGKILL
            # it mid-run — no drain, no checkpoint, no goodbye.
            watcher = JobLedger(
                cluster_dir / "ledger.jsonl", cluster_dir / ".cluster.lock"
            )
            killed = False
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if any(
                    record.get("event") == "running"
                    and record.get("replica") == victim
                    for record in watcher.poll()
                ):
                    os.kill(procs[victim].pid, signal.SIGKILL)
                    procs[victim].wait()
                    killed = True
                    break
                time.sleep(0.01)
            if not killed:
                drill.violations.append(
                    f"victim {victim} never journaled a running job"
                )

            # The victim's non-terminal jobs at the instant of death are
            # the orphans the survivor is obliged to adopt.
            fold_at_kill = ClusterFold()
            for record in watcher.replay():
                fold_at_kill.apply(record)
            orphaned = sorted(
                view.job_id
                for view in fold_at_kill.non_terminal()
                if view.owner == victim
            )

            for thread in threads:
                thread.join(timeout=600.0)
            if any(thread.is_alive() for thread in threads):
                drill.violations.append(
                    "client worker(s) still waiting after 600s"
                )
            try:
                ServiceClient(sockets[survivor]).drain(grace=10.0)
                procs[survivor].wait(timeout=60.0)
            except (ServiceError, OSError, subprocess.TimeoutExpired) as error:
                drill.violations.append(
                    f"survivor drain failed: {type(error).__name__}: {error}"
                )
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

        ledger = JobLedger(
            cluster_dir / "ledger.jsonl", cluster_dir / ".cluster.lock"
        )
        records = ledger.replay()
        fold = ClusterFold()
        for record in records:
            fold.apply(record)

        # Invariant 1: zero lost jobs — every journaled job is terminal
        # and none FAILED (faults degrade cells, never kill jobs).
        lost = sorted(view.job_id for view in fold.non_terminal())
        if lost:
            drill.violations.append(f"lost (non-terminal) jobs: {lost}")
        failed = sorted(
            view.job_id
            for view in fold.jobs.values()
            if view.state == "failed"
        )
        if failed:
            drill.violations.append(f"FAILED jobs after failover: {failed}")

        # Invariant 2: at-most-once — no job carries two terminal records.
        if fold.double_committed():
            drill.violations.append(
                f"double-committed jobs: {fold.double_committed()}"
            )

        # Invariant 3: the fencing-token trail is strictly monotonic.
        if not fold.tokens_monotonic():
            drill.violations.append(
                f"fencing tokens not strictly monotonic: {fold.tokens}"
            )
        if orphaned and not any(
            view.adoptions for view in fold.jobs.values()
        ):
            drill.violations.append(
                f"victim left orphans {orphaned} but nothing was adopted"
            )

        # Invariant 4: committed cells are byte-identical to an
        # uninterrupted direct execution under the same fault plan.  The
        # first ``done`` record per spec is always a full execution (stored
        # cells can only satisfy later duplicates), so its cells
        # and fault schedule must both match the reference exactly.
        committed: dict[str, dict] = {}
        committed_events: dict[str, list] = {}
        for record in records:
            if record.get("event") != "done":
                continue
            spec_id = record.get("spec_id")
            if spec_id and spec_id not in committed:
                committed[spec_id] = record.get("outcomes", {})
                committed_events[spec_id] = record.get("chaos", [])
        missing = sorted(set(spec_ids) - set(committed))
        if missing:
            drill.violations.append(f"specs never committed: {missing}")
        if errors:
            drill.violations.append(f"client-visible errors: {errors[:3]}")
        undone = sorted(
            spec_id
            for spec_id in results
            if getattr(results[spec_id], "state", None) != "done"
        )
        if undone:
            drill.violations.append(f"clients saw non-done jobs: {undone}")

    cluster_payload = {
        spec_id: _cells_payload(committed[spec_id])
        for spec_id in sorted(committed)
        if spec_id in set(spec_ids)
    }
    cluster_events = [
        event
        for spec_id in sorted(committed_events)
        for event in committed_events[spec_id]
    ]
    reference_run = reference(tuple(spec_ids), plan)
    _check_against_reference(
        drill,
        reference_run,
        cluster_payload,
        cluster_events,
        cells="failed-over cells",
        schedule="cluster",
    )
    reference_payload = reference_run[0]
    client_payload = {
        spec_id: _cells_payload(getattr(outcome, "outcomes", {}))
        for spec_id, outcome in sorted(results.items())
        if getattr(outcome, "state", None) == "done"
    }
    for spec_id, cells in client_payload.items():
        if cells != reference_payload.get(spec_id):
            drill.violations.append(
                f"client-observed cells diverge for {spec_id}"
            )
            break
    drill.detail = {
        "replicas": list(CLUSTER_REPLICAS),
        "victim": victim,
        "sites": active,
        "jobs": len(spec_ids),
        "techniques": list(AVAILABILITY_TECHNIQUES),
        "events_by_site": _events_by_site(cluster_events),
        "payload": {
            spec_id: cluster_payload[spec_id]
            for spec_id in sorted(cluster_payload)
        },
    }
    return drill


def run_service_drills(
    seed: int = 0,
    sites=None,
    scale: float = 0.05,
) -> dict:
    """Run the daemon drills and assemble the deterministic report."""
    reference = _corpus_reference(seed, scale)
    return run_suite(
        SERVICE_SUITE,
        sites,
        [
            lambda requested: availability_drill(
                seed, requested, scale, reference
            ),
            lambda requested: backpressure_drill(seed, scale),
            lambda requested: breaker_drill(seed, requested, scale),
            lambda requested: cluster_failover_drill(
                seed, requested, scale, reference
            ),
        ],
        seed=seed,
        scale=scale,
        replicas=len(CLUSTER_REPLICAS),
    )
