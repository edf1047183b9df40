"""Fenced, heartbeat-renewed job leases for the replicated service tier.

Every job in a cluster is *owned* by exactly one replica at a time, and
ownership is a **lease**: a small on-disk record carrying the owner, an
expiry instant, and a **fencing token** drawn from a cluster-wide
monotonic counter.  The three rules that make crash failover safe:

- **acquire/adopt** always issues a *fresh, strictly larger* token, so
  the token order totally orders every ownership change of every job;
- **renewal** (the heartbeat) succeeds only while the on-disk token still
  matches the holder's — a replica that was paused long enough for its
  lease to expire and be adopted discovers the loss on its next
  heartbeat (:class:`LeaseLostError`) instead of writing anyway;
- **commit-time fencing** — the shared result store rejects any commit
  carrying a token smaller than the job's current one
  (:mod:`repro.service.ledger`), so even a writer that never heartbeats
  again cannot double-commit a cell it no longer owns.

Expiry uses the repository's budget convention: a lease is expired the
instant ``now >= expires_at`` (boundary inclusive).  Heartbeat pacing is
**deterministically jittered** — each beat's delay is scaled by a factor
drawn from ``sha256(seed:replica:beat)`` — so a replica fleet started
together does not renew in lockstep, yet every schedule reproduces.

All mutations serialize through a single cluster lock file via
``flock``; the OS releases the lock when a holder dies, so a ``kill -9``
mid-operation never wedges the cluster.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.runtime.errors import CacheCorruptionError
from repro.runtime.persist import atomic_write_json, load_json
from repro.service.protocol import ServiceError

try:  # POSIX only; the service tier is unix-socket based anyway.
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None  # type: ignore[assignment]

LEASE_SCHEMA = "repro-cluster-lease/1"
"""Stamped into every lease file; bump on any shape change."""

FENCE_SCHEMA = "repro-cluster-fence/1"
"""Schema of the monotonic fencing-token counter file."""


class LeaseError(ServiceError):
    """A lease operation failed (already owned, malformed record, ...)."""

    code = "service.lease"


class LeaseLostError(LeaseError):
    """The caller no longer owns the lease — it expired and was adopted
    (fenced out), or was released.  The only safe reaction is to stop
    writing on the job's behalf."""

    code = "service.lease_lost"


@dataclass(frozen=True)
class Lease:
    """One replica's ownership of one job, as granted at a point in time."""

    job_id: str
    owner: str
    token: int
    expires_at: float

    def to_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "owner": self.owner,
            "token": self.token,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Lease":
        return cls(
            job_id=str(data["job_id"]),
            owner=str(data["owner"]),
            token=int(data["token"]),
            expires_at=float(data["expires_at"]),
        )


@contextlib.contextmanager
def file_lock(path: Path) -> Iterator[None]:
    """A cluster-wide critical section: ``flock`` on a dedicated lock
    file.  Safe across processes *and* threads (each entry opens its own
    descriptor, and distinct descriptors of one process contend like
    distinct processes); released by the OS if the holder dies."""
    try:
        handle = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        with contextlib.suppress(OSError):
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_UN)
        os.close(handle)


class LeaseManager:
    """Lease acquisition, renewal, adoption, and expiry scanning over a
    shared cluster directory.

    One instance per replica.  Held leases are mirrored in memory so the
    heartbeat loop knows what to renew, but the on-disk record under the
    cluster lock is always the source of truth.
    """

    def __init__(
        self,
        root: Path,
        replica: str,
        ttl: float = 5.0,
        heartbeat: float | None = None,
        jitter_seed: int = 0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.root = Path(root)
        self.replica = replica
        self.ttl = float(ttl)
        self.heartbeat = heartbeat if heartbeat is not None else self.ttl / 3.0
        if self.heartbeat <= 0 or self.heartbeat >= self.ttl:
            raise ValueError(
                f"heartbeat must be in (0, ttl), got {self.heartbeat} "
                f"against ttl {self.ttl}"
            )
        self.jitter_seed = jitter_seed
        self.clock = clock
        self._lock_path = self.root / ".cluster.lock"
        self._fence_path = self.root / "fence.json"
        self._lease_dir = self.root / "leases"
        self._held: dict[str, Lease] = {}
        self._held_lock = threading.Lock()
        self.acquired = 0
        self.adopted = 0
        self.lost = 0

    # -- paths ----------------------------------------------------------------

    def _lease_path(self, job_id: str) -> Path:
        safe = urllib.parse.quote(job_id, safe="")
        return self._lease_dir / f"{safe}.json"

    # -- fencing tokens -------------------------------------------------------

    def _next_token_locked(self) -> int:
        """Draw the next fencing token.  Caller holds the cluster lock."""
        token = 0
        if self._fence_path.exists():
            try:
                token = int(load_json(self._fence_path, schema=FENCE_SCHEMA))
            except (CacheCorruptionError, TypeError, ValueError):
                # A corrupt counter must never hand out a *reused* token:
                # recover by scanning live leases for the current maximum.
                token = max(
                    (lease.token for lease in self._scan_locked()), default=0
                )
        token += 1
        atomic_write_json(self._fence_path, token, schema=FENCE_SCHEMA)
        return token

    # -- reads ----------------------------------------------------------------

    def _read_locked(self, job_id: str) -> Lease | None:
        path = self._lease_path(job_id)
        if not path.exists():
            return None
        try:
            return Lease.from_json(load_json(path, schema=LEASE_SCHEMA))
        except (CacheCorruptionError, KeyError, TypeError, ValueError):
            # A torn lease file reads as "no lease": the job becomes
            # adoptable, and fencing at commit time keeps that safe even
            # if the previous owner is still running.
            return None

    def _scan_locked(self) -> list[Lease]:
        leases = []
        if self._lease_dir.exists():
            for path in sorted(self._lease_dir.glob("*.json")):
                try:
                    leases.append(
                        Lease.from_json(load_json(path, schema=LEASE_SCHEMA))
                    )
                except (CacheCorruptionError, KeyError, TypeError, ValueError):
                    continue
        return leases

    def current(self, job_id: str) -> Lease | None:
        """The job's current lease record, if any (expired or not)."""
        with file_lock(self._lock_path):
            return self._read_locked(job_id)

    def is_expired(self, lease: Lease, now: float | None = None) -> bool:
        """Boundary-inclusive: expired the instant ``now == expires_at``."""
        if now is None:
            now = self.clock()
        return now >= lease.expires_at

    # -- ownership changes ----------------------------------------------------

    def acquire(self, job_id: str) -> Lease:
        """Take first ownership of a job (or re-take one this replica
        already holds, refreshing the expiry under a *new* token)."""
        with file_lock(self._lock_path):
            existing = self._read_locked(job_id)
            if (
                existing is not None
                and existing.owner != self.replica
                and not self.is_expired(existing)
            ):
                raise LeaseError(
                    f"job {job_id} is leased to {existing.owner} "
                    f"(token {existing.token})",
                    context={"job_id": job_id, "owner": existing.owner},
                )
            lease = self._grant_locked(job_id)
        self.acquired += 1
        return lease

    def adopt(self, job_id: str) -> Lease:
        """Take over an *orphaned* job: its lease must be missing or
        expired.  Exactly one of several racing adopters wins — the
        losers observe a fresh unexpired lease and raise."""
        with file_lock(self._lock_path):
            existing = self._read_locked(job_id)
            if existing is not None and not self.is_expired(existing):
                raise LeaseError(
                    f"job {job_id} is not orphaned: leased to "
                    f"{existing.owner} (token {existing.token})",
                    context={"job_id": job_id, "owner": existing.owner},
                )
            lease = self._grant_locked(job_id)
        self.adopted += 1
        return lease

    def _grant_locked(self, job_id: str) -> Lease:
        lease = Lease(
            job_id=job_id,
            owner=self.replica,
            token=self._next_token_locked(),
            expires_at=self.clock() + self.ttl,
        )
        atomic_write_json(
            self._lease_path(job_id), lease.to_json(), schema=LEASE_SCHEMA
        )
        with self._held_lock:
            self._held[job_id] = lease
        return lease

    def renew(self, lease: Lease) -> Lease:
        """Extend a held lease.  Raises :class:`LeaseLostError` the moment
        the on-disk token differs — someone fenced us out."""
        with file_lock(self._lock_path):
            existing = self._read_locked(lease.job_id)
            if existing is None or existing.token != lease.token:
                with self._held_lock:
                    self._held.pop(lease.job_id, None)
                self.lost += 1
                raise LeaseLostError(
                    f"lease on {lease.job_id} lost: "
                    + (
                        "record gone"
                        if existing is None
                        else f"fenced by token {existing.token} > {lease.token}"
                    ),
                    context={"job_id": lease.job_id, "token": lease.token},
                )
            renewed = Lease(
                job_id=lease.job_id,
                owner=lease.owner,
                token=lease.token,
                expires_at=self.clock() + self.ttl,
            )
            atomic_write_json(
                self._lease_path(lease.job_id),
                renewed.to_json(),
                schema=LEASE_SCHEMA,
            )
            with self._held_lock:
                self._held[lease.job_id] = renewed
            return renewed

    def release(self, lease: Lease) -> None:
        """Give the lease up (job finished or drained).  A no-op if the
        lease was already fenced away."""
        with file_lock(self._lock_path):
            existing = self._read_locked(lease.job_id)
            if existing is not None and existing.token == lease.token:
                with contextlib.suppress(OSError):
                    self._lease_path(lease.job_id).unlink()
        with self._held_lock:
            self._held.pop(lease.job_id, None)

    # -- scanning -------------------------------------------------------------

    def held(self) -> list[Lease]:
        """This replica's in-memory view of the leases it holds."""
        with self._held_lock:
            return list(self._held.values())

    def held_token(self, job_id: str) -> int | None:
        with self._held_lock:
            lease = self._held.get(job_id)
            return lease.token if lease is not None else None

    def expired_jobs(self) -> list[str]:
        """Job ids whose on-disk lease has expired — adoption candidates."""
        now = self.clock()
        with file_lock(self._lock_path):
            return sorted(
                lease.job_id
                for lease in self._scan_locked()
                if self.is_expired(lease, now)
            )

    # -- heartbeat pacing -----------------------------------------------------

    def heartbeat_delay(self, beat: int) -> float:
        """Delay before heartbeat number ``beat``: the base interval scaled
        by a deterministic factor in [0.5, 1.0) drawn from
        ``sha256(seed:replica:beat)`` — seeded jitter, same contract as
        :class:`repro.runtime.retry.RetryPolicy.jitter_seed`."""
        digest = hashlib.sha256(
            f"{self.jitter_seed}:{self.replica}:{beat}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return self.heartbeat * (0.5 + 0.5 * unit)


class HeartbeatLoop:
    """The background renewal thread one cluster replica runs.

    Each tick renews every held lease; a renewal that raises
    :class:`LeaseLostError` fires ``on_lost(job_id)`` exactly once so the
    daemon can stop trusting its in-flight execution of that job (the
    commit path would fence it anyway — this is the early warning)."""

    def __init__(
        self,
        manager: LeaseManager,
        on_lost: Callable[[str], None] | None = None,
    ) -> None:
        self.manager = manager
        self.on_lost = on_lost
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.beats = 0

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-lease-heartbeat-{self.manager.replica}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _run(self) -> None:
        beat = 0
        while not self._stop.wait(self.manager.heartbeat_delay(beat)):
            beat += 1
            self.beats = beat
            for lease in self.manager.held():
                if self._stop.is_set():
                    return
                try:
                    self.manager.renew(lease)
                except LeaseLostError:
                    if self.on_lost is not None:
                        self.on_lost(lease.job_id)
                except OSError:  # pragma: no cover - transient fs trouble
                    continue
