"""Load generator: hundreds of synthetic clients against one daemon.

The proof harness behind the service's robustness claims.  ``run_load``
hosts a daemon in-process (or targets an already-running socket), spawns
``clients`` well-behaved client threads — each submits its share of jobs,
honors every ``retry_after`` hint, and records what came back — then
cross-checks the fleet's ledger against the server's:

- **no lost jobs**: every accepted submission reached a terminal state
  and its terminal event carried a cell for every requested technique;
- **no silent drops**: accepted + rejected == attempted, and every
  rejection carried a positive ``retry_after``;
- **bounded latency**: the server's p99 queue wait is reported so the
  drill (and CI) can assert the SLO.

Job mix: clients cycle the benchmark corpus with varied tenants and
priorities, so admission control, per-tenant buckets, and the
priority/longest-first queue all see realistic contention.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.repair import registry
from repro.service.client import ServiceClient, SubmitOutcome
from repro.service.daemon import ServiceConfig, ServiceHandle
from repro.service.protocol import JobSpec

DEFAULT_TECHNIQUES = ("ATR", "Single-Round_Pass")
"""A cheap traditional + an LLM-path technique: exercises both breakers
without making a load run take minutes."""


@dataclass
class ClientLedger:
    """What one synthetic client saw."""

    attempted: int = 0
    accepted: int = 0
    done: int = 0
    failed: int = 0
    gave_up: int = 0
    rejections: dict[str, int] = field(default_factory=dict)
    bad_retry_after: int = 0
    """Rejections whose retry_after hint was absent or non-positive."""
    incomplete: list[str] = field(default_factory=list)
    """Job ids whose terminal event was missing requested cells."""
    errors: list[str] = field(default_factory=list)


def _client_worker(
    ledger: ClientLedger,
    client: ServiceClient,
    jobs: list[JobSpec],
    max_attempts: int,
) -> None:
    for spec in jobs:
        ledger.attempted += 1
        try:
            outcome = client.submit_retrying(
                spec, watch=True, max_attempts=max_attempts
            )
        except Exception as error:  # noqa: BLE001 - ledger, not crash
            ledger.errors.append(f"{spec.spec_id}: {type(error).__name__}: {error}")
            continue
        for rejection in outcome.rejections:
            reason = rejection.get("reason", "?")
            ledger.rejections[reason] = ledger.rejections.get(reason, 0) + 1
            if float(rejection.get("retry_after", 0.0)) <= 0.0:
                ledger.bad_retry_after += 1
        if not outcome.accepted:
            ledger.gave_up += 1
            continue
        ledger.accepted += 1
        if outcome.state == "done":
            ledger.done += 1
            missing = [t for t in spec.techniques if t not in outcome.outcomes]
            if missing:
                ledger.incomplete.append(
                    f"{outcome.job_id}: missing {','.join(missing)}"
                )
        else:
            ledger.failed += 1


def plan_jobs(
    spec_ids: list[str],
    benchmark: str,
    clients: int,
    jobs_per_client: int,
    techniques: tuple[str, ...],
    seed: int,
) -> list[list[JobSpec]]:
    """The deterministic job mix: client *i* draws specs round-robin from
    an offset, alternates across three tenants, and raises priority on
    every fourth job so the queue orders under contention."""
    assignments: list[list[JobSpec]] = []
    for c in range(clients):
        jobs = []
        for j in range(jobs_per_client):
            spec_id = spec_ids[(c * jobs_per_client + j) % len(spec_ids)]
            jobs.append(
                JobSpec(
                    benchmark=benchmark,
                    spec_id=spec_id,
                    techniques=techniques,
                    seed=seed,
                    tenant=f"tenant-{c % 3}",
                    priority=1 if (c + j) % 4 == 0 else 0,
                )
            )
        assignments.append(jobs)
    return assignments


def run_load(
    config: ServiceConfig,
    clients: int = 50,
    jobs_per_client: int = 2,
    techniques: tuple[str, ...] = DEFAULT_TECHNIQUES,
    max_attempts: int = 60,
    handle: ServiceHandle | None = None,
    replicas: int = 1,
) -> dict:
    """Drive a client fleet and return the availability ledger.

    With ``handle`` the fleet targets an existing daemon (and leaves it
    running); otherwise a daemon is hosted for the duration and drained
    at the end.  With ``replicas > 1`` a cluster of that many daemons is
    hosted against a shared cluster directory, the client fleet is spread
    round-robin across the replica sockets (each client keeps the full
    ring for failover), and the result ledger reports per-replica
    availability.
    """
    for technique in techniques:
        if not registry.is_registered(technique):
            raise ValueError(f"unknown technique {technique!r}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if replicas > 1 and handle is not None:
        raise ValueError("a replica fleet is always self-hosted")
    owned = handle is None
    handles: list[ServiceHandle]
    if handle is not None:
        handles = [handle]
    elif replicas == 1:
        handles = [ServiceHandle.start(config)]
    else:
        cluster_dir = str(config.resolved_cluster_dir())
        handles = [
            ServiceHandle.start(
                replace(
                    config,
                    socket=f"{config.socket}.{i}",
                    cluster_dir=cluster_dir,
                    replica_id=f"r{i}",
                )
            )
            for i in range(replicas)
        ]
    service = handles[0].service
    sockets = [h.socket for h in handles]
    spec_ids = sorted(service.jobs_corpus_ids())
    fleet: list[ServiceClient] = []
    try:
        assignments = plan_jobs(
            spec_ids,
            config.benchmark,
            clients,
            jobs_per_client,
            techniques,
            config.seed,
        )
        ledgers = [ClientLedger() for _ in range(clients)]
        for c in range(clients):
            # Spread primaries round-robin; keep the whole ring so a
            # client fails over when its primary dies or drains.
            start = c % len(sockets)
            fleet.append(
                ServiceClient(
                    sockets[start:] + sockets[:start], retry_seed=c
                )
            )
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(ledgers[c], fleet[c], assignments[c], max_attempts),
                name=f"loadgen-c{c}",
                daemon=True,
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = ServiceClient(handles[0].socket).stats()
        replica_stats = (
            [ServiceClient(h.socket).stats() for h in handles]
            if len(handles) > 1
            else [stats]
        )
    finally:
        if owned:
            for h in reversed(handles):
                h.drain()
    total = ClientLedger()
    for ledger in ledgers:
        total.attempted += ledger.attempted
        total.accepted += ledger.accepted
        total.done += ledger.done
        total.failed += ledger.failed
        total.gave_up += ledger.gave_up
        total.bad_retry_after += ledger.bad_retry_after
        total.incomplete.extend(ledger.incomplete)
        total.errors.extend(ledger.errors)
        for reason, count in ledger.rejections.items():
            total.rejections[reason] = total.rejections.get(reason, 0) + count
    lost = total.accepted - total.done - total.failed
    per_replica = []
    for i, h in enumerate(handles):
        mine = [
            ledgers[c] for c in range(clients) if c % len(sockets) == i
        ]
        per_replica.append(
            {
                "replica": h.service.replica_id,
                "socket": sockets[i],
                "clients": len(mine),
                "attempted": sum(l.attempted for l in mine),
                "accepted": sum(l.accepted for l in mine),
                "done": sum(l.done for l in mine),
                "failed": sum(l.failed for l in mine),
                "jobs_by_state": replica_stats[i].get("jobs_by_state", {}),
                "adopted_jobs": replica_stats[i]
                .get("cluster", {})
                .get("adopted_jobs", 0),
            }
        )
    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "replica_count": len(handles),
        "replicas": per_replica,
        "client_failovers": sum(cl.failovers for cl in fleet),
        "client_reconnects": sum(cl.reconnects for cl in fleet),
        "attempted": total.attempted,
        "accepted": total.accepted,
        "done": total.done,
        "failed": total.failed,
        "gave_up": total.gave_up,
        "lost": lost,
        "rejections": dict(sorted(total.rejections.items())),
        "bad_retry_after": total.bad_retry_after,
        "incomplete": sorted(total.incomplete),
        "client_errors": sorted(total.errors),
        "server": {
            "queue_wait": stats.get("queue_wait", {}),
            "breakers": {
                name: snap.get("state")
                for name, snap in stats.get("breakers", {}).items()
            },
            "pool": {
                "executed": stats.get("pool", {}).get("executed"),
                "wedged": stats.get("pool", {}).get("wedged"),
            },
        },
        "ok": (
            lost == 0
            and not total.incomplete
            and not total.errors
            and total.bad_retry_after == 0
        ),
    }
