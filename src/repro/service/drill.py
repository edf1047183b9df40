"""``repro chaos --service`` — availability drills against a live daemon.

The batch-engine drills (:mod:`repro.chaos.harness`) prove the *engine's*
contracts under injected faults; these prove the *service's*:

- **service-availability** — a client fleet submits the whole corpus to a
  daemon whose executions (and store flushes) run under the full 9-site
  fault plan.  The SLO: every accepted job reaches a terminal state (no
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
  unaffected; a fake-clock breaker walks open → half-open → closed;
- **service-drain-resume** — a drained daemon journals ``drained`` for
  every pending job; a restarted daemon replays the ledger, adopts all of
  them under their ids before it listens, and produces bit-identical
  outcomes to a direct execution; a third incarnation serves the same
  jobs straight from the store mirror.

``repro chaos --cluster`` drills the *replicated* tier on top of these:

- **cluster-lease** — fake-clock edge cases of the lease/fencing layer:
  boundary-inclusive expiry, exactly-one-winner adoption of an orphan,
  stale-writer rejection at the shared store, torn-tail tolerance of the
  job ledger, and ledger-folded quotas that survive a replica restart;
- **cluster-failover** — two ``repro serve`` subprocess replicas share a
  cluster directory; the whole corpus is submitted under the full fault
  plan, then a seeded victim replica is ``kill -9``'d the moment it has
  a job mid-execution.  The SLO: zero lost jobs (the survivor adopts and
  re-executes every orphan), zero double-committed cells, a strictly
  monotonic fencing-token trail, and every committed cell bit-identical
  to an uninterrupted direct engine execution under the same plan.

Reports follow the chaos-report contract: canonical JSON, no timestamps,
durations, or counts that depend on thread timing — two same-seed runs
are byte-identical (CI pins this with a double-run ``cmp``).
"""

from __future__ import annotations

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
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, ServiceHandle
from repro.service.ledger import (
    ClusterFold,
    ClusterStore,
    DuplicateCommitError,
    JobLedger,
    StaleWriterError,
)
from repro.service.lease import LeaseError, LeaseManager
from repro.service.loadgen import plan_jobs, run_load
from repro.service.protocol import (
    CLUSTER_REPORT_SCHEMA,
    JobSpec,
    ServiceError,
)

SERVICE_CHAOS_SCHEMA = "repro-service-chaos/1"
"""Stamped into every service chaos report; bump on any shape change."""

SERVICE_SUITE = Suite(
    schema=SERVICE_CHAOS_SCHEMA,
    title="SERVICE CHAOS",
    held="availability SLO held",
    header=("seed", "scale"),
    report_file="service-chaos-report.json",
)

CLUSTER_SUITE = Suite(
    schema=CLUSTER_REPORT_SCHEMA,
    title="CLUSTER CHAOS",
    held="failover invariants held",
    header=("seed", "scale", "replicas"),
    report_file="cluster-chaos-report.json",
)

AVAILABILITY_SITES: dict[str, SiteConfig] = {
    "sat.budget": SiteConfig(probability=0.05, max_fires=2),
    "sat.flip": SiteConfig(probability=0.05, max_fires=2),
    "analyzer.explode": SiteConfig(probability=0.03, max_fires=1),
    "repair.crash": SiteConfig(probability=0.25, max_fires=3),
    "llm.transient": SiteConfig(probability=0.3, max_fires=2),
    "llm.garbage": SiteConfig(probability=0.3, max_fires=2),
    "llm.truncate": SiteConfig(probability=0.3, max_fires=2),
    "persist.corrupt": SiteConfig(probability=0.5, max_fires=2),
    "persist.truncate": SiteConfig(probability=0.5, max_fires=2),
}
"""All nine sites, tuned so each fires somewhere across the corpus while
most cells stay healthy.  ``llm.transient`` stays under the retry budget
(``max_fires=2`` against 3 attempts) so transient faults are absorbed,
not surfaced — the availability drill's point."""

AVAILABILITY_TECHNIQUES = ("ATR", "BeAFix", "Single-Round_Pass")
"""Solver, analyzer, repair loop, and LLM transport all on some path."""

QUEUE_WAIT_SLO_P99 = 30.0
"""Seconds.  Generous — the assertion is boundedness, not speed."""


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


def _reference_execution(
    spec_ids: list[str],
    scale: float,
    techniques: tuple[str, ...],
    seed: int,
    plan: FaultPlan | None,
) -> tuple[dict, list[dict]]:
    """Run every job directly through the engine, with no deadline — the
    ground truth the service's results must match bit-for-bit."""
    specs = {
        spec.spec_id: spec
        for spec in load_benchmark("arepair", seed=seed, scale=scale)
    }
    payload: dict[str, dict] = {}
    events: list[dict] = []
    for spec_id in spec_ids:
        result = execute_shard(
            ShardTask(
                spec=specs[spec_id],
                techniques=techniques,
                seed=seed,
                chaos=plan,
            )
        )
        events.extend(result.chaos_events)
        payload[spec_id] = outcome_row(result.outcomes)
    return payload, events


def _socket_dir() -> tempfile.TemporaryDirectory:
    # Unix socket paths are length-limited (~108 bytes); a short /tmp dir
    # keeps the drill independent of how deep REPRO_CACHE_DIR nests.
    return tempfile.TemporaryDirectory(prefix="repro-svc-")


def availability_drill(
    seed: int, requested: set[str], scale: float
) -> DrillResult:
    """The headline SLO: no lost jobs, no corrupted results, bounded p99,
    deterministic fault schedule — under all nine sites at once."""
    drill = DrillResult(name="service-availability")
    active = sorted(requested & set(AVAILABILITY_SITES))
    if not active:
        drill.skipped = True
        return drill
    plan = FaultPlan(
        seed=seed, sites={site: AVAILABILITY_SITES[site] for site in active}
    )
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
            flush_events = list(service.cluster.events)
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

    with _temp_cache():
        reference_payload, reference_events = _reference_execution(
            spec_ids, scale, AVAILABILITY_TECHNIQUES, seed, plan
        )
    if service_payload != reference_payload:
        diverging = sorted(
            spec_id
            for spec_id in reference_payload
            if service_payload.get(spec_id) != reference_payload[spec_id]
        )
        drill.violations.append(
            f"service results diverge from direct execution for {diverging}"
        )
    if _events_by_site(service_events) != _events_by_site(reference_events):
        drill.violations.append(
            "service fault schedule diverges from the reference run: "
            f"{_events_by_site(service_events)} != "
            f"{_events_by_site(reference_events)}"
        )
    all_events = service_events + flush_events
    fired = {event["site"] for event in all_events}
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
        "events_by_site": _events_by_site(all_events),
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

        try:
            service.pool.pause()
            for index in range(2):
                outcome = client.submit(job("bulk"), watch=False)
                if not outcome.accepted:
                    drill.violations.append(
                        f"bulk submission #{index} rejected with tokens and "
                        f"queue space available: {outcome.rejections}"
                    )
            third = client.submit(job("bulk"), watch=False)
            if third.accepted:
                drill.violations.append(
                    "tenant with an empty bucket was admitted"
                )
            elif third.rejections[0].get("reason") != "rate_limited":
                drill.violations.append(
                    f"expected rate_limited, got {third.rejections[0]}"
                )
            other = client.submit(job("other"), watch=False)
            if not other.accepted:
                drill.violations.append(
                    f"fresh tenant rejected below the queue bound: "
                    f"{other.rejections}"
                )
            full = client.submit(job("other"), watch=False)
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
            after = client.submit(job("other"), watch=True)
            if not after.accepted or after.state != "done":
                drill.violations.append(
                    "post-resume submission from the preserved-token tenant "
                    f"failed: accepted={after.accepted} state={after.state}"
                )
        finally:
            handle.drain()
    drill.detail = {
        "max_queue": 3,
        "bucket_capacity": 2,
        "admitted": 4,
        "rejected": {"queue_full": 1, "rate_limited": 1},
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

    # Recovery half, deterministic via a fake clock: open → half-open
    # probe → closed.
    now = [0.0]
    breaker = CircuitBreaker(
        "drill", BreakerConfig(window=4, min_calls=2, cooldown=10.0),
        clock=lambda: now[0],
    )
    breaker.record_failure("llm.transient")
    breaker.record_failure("llm.transient")
    if breaker.state != "open" or breaker.allow():
        drill.violations.append("fake-clock breaker failed to trip open")
    now[0] = 10.0
    if breaker.state != "half-open" or not breaker.allow():
        drill.violations.append(
            "breaker did not admit a probe after the cooldown"
        )
    breaker.record_success()
    if breaker.state != "closed":
        drill.violations.append("successful probe did not close the breaker")
    drill.detail = {
        "trip_after_failures": 2,
        "recovered_via_probe": breaker.state == "closed",
    }
    return drill


def drain_resume_drill(seed: int, scale: float) -> DrillResult:
    """Journal on drain; adopt by ledger replay, bit-identical; then serve
    from the store mirror."""
    drill = DrillResult(name="service-drain-resume")
    techniques = ("ATR", "Single-Round_Pass")
    with _temp_cache(), _socket_dir() as sock_dir:
        config = ServiceConfig(
            socket=str(Path(sock_dir) / "drill.sock"),
            benchmark="arepair",
            scale=scale,
            seed=seed,
            workers=2,
            job_timeout=None,
        )
        cluster_dir = config.resolved_cluster_dir()

        def replay() -> ClusterFold:
            fold = ClusterFold()
            ledger = JobLedger(
                cluster_dir / "ledger.jsonl", cluster_dir / ".cluster.lock"
            )
            for record in ledger.replay():
                fold.apply(record)
            return fold

        # Phase A: admit jobs into a paused pool, drain — every job must
        # be journaled as drained, none executed.
        handle = ServiceHandle.start(config)
        service_a = handle.service
        spec_ids = sorted(service_a.jobs_corpus_ids())[:6]
        jobs = [
            JobSpec(
                benchmark="arepair",
                spec_id=spec_id,
                techniques=techniques,
                seed=seed,
            )
            for spec_id in spec_ids
        ]
        client = ServiceClient(handle.socket)
        service_a.pool.pause()
        job_ids = []
        for job in jobs:
            outcome = client.submit(job, watch=False)
            if not outcome.accepted:
                drill.violations.append(
                    f"phase A rejected {job.spec_id}: {outcome.rejections}"
                )
            else:
                job_ids.append(outcome.job_id)
        handle.drain(grace=0.0)
        drained = sorted(
            view.job_id
            for view in replay().jobs.values()
            if view.state == "drained"
        )
        if drained != sorted(job_ids):
            drill.violations.append(
                f"drain journaled {len(drained)} of {len(job_ids)} jobs"
            )
            return drill

        # Phase B: a fresh daemon adopts every drained job before it
        # listens and runs them to completion.
        handle_b = ServiceHandle.start(config)
        service_b = handle_b.service
        try:
            if service_b.adopted_jobs != len(jobs):
                drill.violations.append(
                    f"adopted {service_b.adopted_jobs} of {len(jobs)} "
                    "drained jobs at startup"
                )
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if len(service_b.jobs) == len(jobs) and all(
                    record.terminal for record in service_b.jobs.values()
                ):
                    break
                time.sleep(0.05)
            resumed_payload = {
                record.spec.spec_id: _cells_payload(record.outcomes)
                for record in service_b.jobs.values()
            }
            resumed_states = sorted(
                record.state.value for record in service_b.jobs.values()
            )
            if resumed_states != ["done"] * len(jobs):
                drill.violations.append(
                    f"adopted jobs did not all complete: {resumed_states}"
                )
            if sorted(service_b.jobs) != sorted(job_ids):
                drill.violations.append(
                    "adopted job ids diverge from the drained ones"
                )
        finally:
            handle_b.drain()
        if replay().non_terminal():
            drill.violations.append(
                "clean drain left non-terminal jobs in the ledger"
            )

        # Ground truth: the same cells straight through the engine.
        reference_payload, _ = _reference_execution(
            spec_ids, scale, techniques, seed, None
        )
        if resumed_payload != reference_payload:
            drill.violations.append(
                "adopted outcomes diverge from direct execution"
            )

        # Phase C: a third incarnation serves the identical jobs from the
        # store mirror without executing anything.
        handle_c = ServiceHandle.start(config)
        service_c = handle_c.service
        try:
            if service_c.adopted_jobs != 0:
                drill.violations.append(
                    "third daemon adopted jobs from a supposedly clean ledger"
                )
            client_c = ServiceClient(handle_c.socket)
            store_hits = 0
            for job in jobs:
                outcome = client_c.submit(job, watch=True)
                if not outcome.accepted or outcome.state != "done":
                    drill.violations.append(
                        f"store-phase job {job.spec_id} did not complete"
                    )
                    continue
                if outcome.from_store:
                    store_hits += 1
                if _cells_payload(outcome.outcomes) != reference_payload.get(
                    job.spec_id
                ):
                    drill.violations.append(
                        f"store-served outcomes diverge for {job.spec_id}"
                    )
            if store_hits != len(jobs):
                drill.violations.append(
                    f"only {store_hits} of {len(jobs)} jobs were served "
                    "from the store"
                )
            if service_c.pool.executed != 0:
                drill.violations.append(
                    f"store phase executed {service_c.pool.executed} job(s)"
                )
        finally:
            handle_c.drain()
    drill.detail = {
        "jobs": len(jobs),
        "drained": len(jobs),
        "adopted": len(jobs),
        "store_served": len(jobs),
        "payload": {
            spec_id: reference_payload[spec_id]
            for spec_id in sorted(reference_payload)
        },
    }
    return drill


CLUSTER_REPLICAS = ("r0", "r1")
"""The failover drill's fleet: one victim, one survivor."""

CLUSTER_LEASE_TTL = 1.0
"""Short enough that failover completes in a couple of seconds."""


def cluster_lease_drill(seed: int) -> DrillResult:
    """Fake-clock edge cases of the lease, ledger, and quota layers —
    every scenario fully deterministic, no processes, no sleeps."""
    drill = DrillResult(name="cluster-lease")
    now = [float(seed % 1000)]
    clock = lambda: now[0]  # noqa: E731 - the whole drill shares one clock
    with tempfile.TemporaryDirectory(prefix="repro-lease-") as tmp:
        root = Path(tmp)

        # Boundary-inclusive expiry: alive strictly before ``expires_at``,
        # expired the exact instant ``now == expires_at``.
        m1 = LeaseManager(root / "l", "r1", ttl=5.0, clock=clock)
        m2 = LeaseManager(root / "l", "r2", ttl=5.0, clock=clock)
        lease = m1.acquire("job-a")
        if m1.is_expired(lease, lease.expires_at - 1e-6):
            drill.violations.append("lease expired before its boundary")
        if not m1.is_expired(lease, lease.expires_at):
            drill.violations.append(
                "lease not expired exactly at expires_at (must be "
                "boundary-inclusive)"
            )

        # Adoption race: with the lease expired, two would-be adopters
        # contend and exactly one wins; the loser sees the winner's fresh
        # lease and raises instead of double-owning.
        now[0] = lease.expires_at
        winners = []
        for manager in (m2, m1):
            try:
                winners.append(manager.adopt("job-a"))
            except LeaseError:
                pass
        if len(winners) != 1:
            drill.violations.append(
                f"{len(winners)} adopters won the same orphan (want 1)"
            )
        elif winners[0].token <= lease.token:
            drill.violations.append(
                "adoption did not advance the fencing token: "
                f"{winners[0].token} <= {lease.token}"
            )

        # Stale-writer fencing at the shared store: the original owner's
        # commit (token t1) must be rejected after adoption (token t2),
        # leaving the mirror untouched; the adopter's commit lands.
        recipe = {"drill": "cluster-lease", "seed": seed}
        cs1 = ClusterStore(root / "c", "r1", recipe, ttl=5.0, clock=clock)
        cs2 = ClusterStore(root / "c", "r2", recipe, ttl=5.0, clock=clock)
        stale = cs1.register("job-1", {"spec_id": "S1"})
        cs1.mark_running("job-1", stale.token)
        now[0] += 5.0
        adopted = cs2.adopt_orphans()
        if [job_id for job_id, _, _ in adopted] != ["job-1"]:
            drill.violations.append(
                f"expected to adopt exactly job-1, got {adopted}"
            )
        cell = {"rep": 1, "tm": 0.25, "sm": 0.5, "status": "correct"}
        try:
            cs1.commit("job-1", "S1", {"ATR": dict(cell)}, stale.token)
            drill.violations.append("stale writer's commit was accepted")
        except StaleWriterError:
            pass
        if cs1.lookup("S1"):
            drill.violations.append(
                "fenced commit leaked cells into the shared store"
            )
        if adopted:
            cs2.commit(
                "job-1", "S1", {"ATR": dict(cell)}, adopted[0][2].token
            )
        if cs1.lookup("S1").get("ATR") != cell:
            drill.violations.append(
                "the adopter's committed cell is missing from the store"
            )
        try:
            cs2.commit("job-1", "S1", {"ATR": dict(cell)}, 10**9)
            drill.violations.append("double commit was accepted")
        except DuplicateCommitError:
            pass

        # Torn tail: garbage appended by a dying replica is one skippable
        # line; the next append's leading newline seals it off.
        ledger_path = cs1.ledger.path
        with ledger_path.open("ab") as handle:
            handle.write(b'{"event":"done","job_id":"job-torn"')
        cs1.journal("running", "job-1", token=0)
        reader = JobLedger(ledger_path, cs1.ledger.lock_path)
        records = reader.replay()
        if reader.corrupt_lines != 1:
            drill.violations.append(
                f"torn tail produced {reader.corrupt_lines} corrupt "
                "line(s), want exactly 1"
            )
        if "job-torn" in {r.get("job_id") for r in records}:
            drill.violations.append("a torn record was treated as real")
        fold = ClusterFold()
        for record in records:
            fold.apply(record)
        if fold.double_committed():
            drill.violations.append(
                f"double-committed jobs: {fold.double_committed()}"
            )
        if not fold.tokens_monotonic():
            drill.violations.append(
                f"fencing tokens not strictly monotonic: {fold.tokens}"
            )
        if fold.fenced_commits != 1:
            drill.violations.append(
                f"{fold.fenced_commits} fenced audit record(s), want 1"
            )

        # Quota durability: a debit journaled by one replica is seen by a
        # reborn one through the ledger fold, and a torn debit is skipped.
        quotas = ClusterStore(
            root / "q", "r1", recipe, clock=clock,
            bucket_capacity=2.0, bucket_refill=0.0,
        )
        if quotas.debit("t1", 1.5) != 0.0:
            drill.violations.append("first debit within capacity refused")
        reborn = ClusterStore(
            root / "q", "r2", recipe, clock=clock,
            bucket_capacity=2.0, bucket_refill=0.0,
        )
        if reborn.balance("t1") != 0.5:
            drill.violations.append(
                "tenant balance did not survive a replica restart: "
                f"{reborn.balance('t1')}"
            )
        if reborn.debit("t1", 1.0) <= 0.0:
            drill.violations.append("over-capacity debit was not refused")
        with reborn.ledger.path.open("ab") as handle:
            handle.write(b'{"event":"debit","tenant":"t2","co')
        reborn.journal("running", "job-q", token=0)
        if reborn.balance("t2") != 2.0:
            drill.violations.append(
                "a torn debit was charged to the tenant's bucket"
            )
    drill.detail = {
        "boundary_inclusive": True,
        "adoption_winners": 1,
        "fenced_commits": 1,
        "torn_lines_tolerated": 1,
        "quota_durable": True,
    }
    return drill


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
    seed: int, requested: set[str], scale: float
) -> DrillResult:
    """Kill -9 a replica mid-job; assert the cluster's four invariants:
    zero lost jobs, zero double commits, monotonic fencing tokens, and
    byte-identical committed cells versus direct execution."""
    drill = DrillResult(name="cluster-failover")
    active = sorted(requested & set(AVAILABILITY_SITES))
    plan = (
        FaultPlan(
            seed=seed,
            sites={site: AVAILABILITY_SITES[site] for site in active},
        )
        if active
        else None
    )
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
        # first ``done`` record per spec is always a full execution (the
        # store mirror can only satisfy later duplicates), so its cells
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
    with _temp_cache():
        reference_payload, reference_events = _reference_execution(
            spec_ids, scale, AVAILABILITY_TECHNIQUES, seed, plan
        )
    if cluster_payload != reference_payload:
        diverging = sorted(
            spec_id
            for spec_id in reference_payload
            if cluster_payload.get(spec_id) != reference_payload[spec_id]
        )
        drill.violations.append(
            "failed-over cells diverge from direct execution for "
            f"{diverging}"
        )
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
    cluster_events = [
        event
        for spec_id in sorted(committed_events)
        for event in committed_events[spec_id]
    ]
    if _events_by_site(cluster_events) != _events_by_site(reference_events):
        drill.violations.append(
            "cluster fault schedule diverges from the reference run: "
            f"{_events_by_site(cluster_events)} != "
            f"{_events_by_site(reference_events)}"
        )
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


def run_cluster_drills(
    seed: int = 0,
    sites=None,
    scale: float = 0.05,
) -> dict:
    """Run the replicated-tier drills and assemble the report."""
    return run_suite(
        CLUSTER_SUITE,
        sites,
        [
            lambda requested: cluster_lease_drill(seed),
            lambda requested: cluster_failover_drill(seed, requested, scale),
        ],
        seed=seed,
        scale=scale,
        replicas=len(CLUSTER_REPLICAS),
    )


def run_service_drills(
    seed: int = 0,
    sites=None,
    scale: float = 0.05,
) -> dict:
    """Run the service drills and assemble the deterministic report."""
    return run_suite(
        SERVICE_SUITE,
        sites,
        [
            lambda requested: availability_drill(seed, requested, scale),
            lambda requested: backpressure_drill(seed, scale),
            lambda requested: breaker_drill(seed, requested, scale),
            lambda requested: drain_resume_drill(seed, scale),
        ],
        seed=seed,
        scale=scale,
    )
