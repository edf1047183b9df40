"""The cluster job ledger: an append-only journal plus a fenced store.

The replicated service tier (`repro serve --cluster-dir ...`) has no
coordinator process; the shared directory *is* the cluster. Its source of
truth is the :class:`JobLedger` — an append-only, schema-stamped journal
of job state transitions (``submitted`` → ``leased`` → ``running`` →
``done``/``failed``/``drained``, plus ``adopted`` and ``fenced`` audit
records) and of the tenant quota ``debit`` records admission appends.
Any replica — or a post-mortem tool — can replay it after a ``kill -9``
and reconstruct the exact cluster state: which jobs exist, who owned
them under which fencing token, which results committed, and what each
tenant has spent.

Durability of the append path is torn-write-proof by construction: every
record is written as ``\\n<json>\\n`` in a single ``O_APPEND`` write
under the cluster lock.  A record half-written by a dying replica is a
junk line that the tolerant replayer skips (and counts); the *leading*
newline of the next append guarantees the junk never corrupts a healthy
neighbour.  A record is only *real* once it parses — which is exactly
the at-most-once commit rule: a commit whose append tore simply never
happened, the job's lease expires, and a surviving replica adopts and
re-executes it.

:class:`ClusterStore` is the facade one replica holds: journal + lease
manager (:mod:`repro.service.lease`) + the shared result-store mirror +
the tenant token buckets folded from the debits.  A lone daemon is a
one-replica cluster over ``<socket>.cluster``; there is no other
durability path.  :meth:`~ClusterStore.commit` is the **fencing
boundary**: under the cluster lock it rejects commits for
already-terminal jobs (:class:`DuplicateCommitError`) and commits
carrying a stale fencing token (:class:`StaleWriterError`) — so a
paused-then-resumed replica can never double-commit a cell, no matter
how late it wakes up.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import chaos, obs
from repro.chaos.plan import FaultPlan
from repro.runtime.errors import CacheCorruptionError
from repro.runtime.persist import atomic_write_json, load_json
from repro.service.admission import TokenBucket
from repro.service.lease import Lease, LeaseManager, file_lock
from repro.service.protocol import ServiceError, canonical_json

LEDGER_SCHEMA = "repro-cluster-ledger/1"
"""First line of every ledger file; bump on any record-shape change."""

CLUSTER_STORE_SCHEMA = "repro-cluster-store/1"
"""Schema of the shared result-store mirror the cluster flushes cells to."""

LEDGER_EVENTS = (
    "submitted",
    "leased",
    "running",
    "adopted",
    "done",
    "failed",
    "drained",
    "fenced",
)
"""The job-lifecycle vocabulary, in rough lifecycle order.  The ledger
also carries tenant ``debit`` records, which belong to no job."""

TERMINAL_EVENTS = frozenset({"done", "failed"})


class StaleWriterError(ServiceError):
    """A commit carried a fencing token older than the job's current one —
    the writer lost its lease while it was executing.  The result is
    discarded; whoever fenced it out owns the job now."""

    code = "service.fenced"


class DuplicateCommitError(ServiceError):
    """A commit arrived for a job that is already terminal in the ledger —
    the at-most-once guard."""

    code = "service.double_commit"


class JobLedger:
    """Append-only journal over one shared file.

    Appends serialize through the cluster lock; reads are lock-free and
    incremental (:meth:`poll` consumes only bytes appended since the last
    call).  Corrupt lines — torn appends from dead replicas — are skipped
    and counted, never fatal.
    """

    def __init__(self, path: Path, lock_path: Path) -> None:
        self.path = Path(path)
        self._file = os.fspath(self.path)
        self.lock_path = Path(lock_path)
        self._offset = 0
        self._handle: int | None = None
        self.corrupt_lines = 0
        self.records_read = 0

    def __del__(self, _close=os.close) -> None:
        if self._handle is not None:
            _close(self._handle)

    def _opened(self, create: bool) -> tuple[int, os.stat_result] | None:
        """The ledger's descriptor and its current stat.  One ``O_APPEND``
        descriptor serves every append and poll; it is reopened when the
        file was unlinked, and None means there is no ledger yet."""
        if self._handle is not None:
            stat = os.fstat(self._handle)
            if stat.st_nlink:
                return self._handle, stat
            os.close(self._handle)
            self._handle = None
        flags = os.O_RDWR | os.O_APPEND | (os.O_CREAT if create else 0)
        try:
            handle = os.open(self._file, flags, 0o644)
        except FileNotFoundError:
            if not create:
                return None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = os.open(self._file, flags, 0o644)
        self._handle = handle
        return handle, os.fstat(handle)

    # -- writing --------------------------------------------------------------

    def append(self, record: dict) -> None:
        with file_lock(self.lock_path):
            self.append_locked(record)

    def append_locked(self, record: dict, consume: bool = False) -> bool:
        """Append one record; the caller already holds the cluster lock.

        The record is framed as ``\\n<json>\\n`` in a single write: the
        leading newline terminates any torn tail a dead replica left, so
        one junk line never swallows a healthy record.

        With ``consume``, a record that lands right at the poll cursor
        (nothing unread before it) moves the cursor past it and the call
        returns True: the caller folds the record it holds instead of
        the next :meth:`poll` reading it back.
        """
        line = ("\n" + canonical_json(record) + "\n").encode()
        handle, stat = self._opened(create=True)
        start = stat.st_size
        if start == 0:
            header = (json.dumps({"schema": LEDGER_SCHEMA}) + "\n").encode()
            os.write(handle, header)
            start = len(header)
        os.write(handle, line)
        if not consume or start != self._offset:
            return False
        self._offset = start + len(line)
        self.records_read += 1
        return True

    # -- reading --------------------------------------------------------------

    def _parse(self, chunk: bytes) -> list[dict]:
        records: list[dict] = []
        for line in chunk.split(b"\n"):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                self.corrupt_lines += 1
                continue
            if "schema" in record and "event" not in record:
                if record["schema"] != LEDGER_SCHEMA:
                    raise CacheCorruptionError(
                        f"ledger {self.path.name} has schema "
                        f"{record['schema']!r}, expected {LEDGER_SCHEMA!r}",
                        context={"path": str(self.path)},
                    )
                continue
            records.append(record)
        self.records_read += len(records)
        return records

    def poll(self) -> list[dict]:
        """Records appended since the last poll.

        Only complete lines are consumed: a partial tail (an append in
        flight, or torn by a kill) stays unconsumed until the next append
        terminates it with its leading newline.
        """
        opened = self._opened(create=False)
        if opened is None:
            return []
        handle, stat = opened
        unread = stat.st_size - self._offset
        if unread <= 0:
            return []
        chunk = os.pread(handle, unread, self._offset)
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return []
        self._offset += cut + 1
        return self._parse(chunk[: cut + 1])

    def replay(self) -> list[dict]:
        """Every record from the top, independent of the poll cursor —
        including an unterminated final line if it happens to parse (a
        complete record that merely lost its newline to a kill)."""
        if not self.path.exists():
            return []
        fresh = JobLedger(self.path, self.lock_path)
        records = fresh._parse(self.path.read_bytes())
        self.corrupt_lines = fresh.corrupt_lines
        return records


@dataclass
class JobView:
    """One job's current state, as folded from the ledger."""

    job_id: str
    spec: dict | None = None
    state: str = "submitted"
    owner: str = ""
    token: int = 0
    outcomes: dict = field(default_factory=dict)
    executed: bool = False
    error: str | None = None
    done_events: int = 0
    adoptions: int = 0
    last_ts: float = 0.0
    chaos_events: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_EVENTS


class ClusterFold:
    """The ledger reduced to per-job state, the fencing-token trail, and
    one token bucket per tenant.

    ``capacity``/``refill_rate`` shape the buckets the ``debit`` records
    drain; a fold that only audits jobs can leave the defaults.
    """

    def __init__(self, capacity: float = 8.0, refill_rate: float = 4.0) -> None:
        self.capacity = capacity
        self.refill_rate = refill_rate
        self.quotas: dict[str, TokenBucket] = {}
        self.jobs: dict[str, JobView] = {}
        self.tokens: list[int] = []
        """Every fencing token in journal issue order (``leased`` and
        ``adopted`` records) — the drill asserts strict monotonicity."""
        self.fenced_commits = 0
        self.drained = 0

    def bucket(self, tenant: str) -> TokenBucket:
        """The tenant's bucket as of the last folded debit (full if none)."""
        bucket = self.quotas.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.capacity, self.refill_rate)
        return bucket

    def apply(self, record: dict) -> None:
        event = record.get("event")
        if event == "debit":
            tenant = record.get("tenant")
            if isinstance(tenant, str):
                self.quotas[tenant] = bucket = self.bucket(tenant)
                bucket.take(
                    float(record.get("ts", 0.0)),
                    float(record.get("cost", 1.0)),
                )
            return
        job_id = record.get("job_id")
        if event not in LEDGER_EVENTS or not isinstance(job_id, str):
            return
        view = self.jobs.setdefault(job_id, JobView(job_id=job_id))
        view.last_ts = float(record.get("ts", view.last_ts))
        if event == "fenced":
            self.fenced_commits += 1
            return
        if event == "submitted":
            view.spec = record.get("spec", view.spec)
            view.owner = str(record.get("replica", view.owner))
            if not view.terminal:
                view.state = "submitted"
            return
        if event in ("leased", "adopted"):
            token = int(record.get("token", 0))
            self.tokens.append(token)
            view.token = token
            view.owner = str(record.get("replica", view.owner))
            if event == "adopted":
                view.adoptions += 1
            if not view.terminal:
                view.state = "leased"
            return
        if event == "running":
            if not view.terminal:
                view.state = "running"
            return
        if event == "drained":
            self.drained += 1
            if not view.terminal:
                view.state = "drained"
            return
        if event == "done":
            view.done_events += 1
            if view.done_events == 1:
                view.state = "done"
                view.outcomes = dict(record.get("outcomes", {}))
                view.executed = bool(record.get("executed", False))
                view.chaos_events = list(record.get("chaos", []))
            return
        if event == "failed":
            view.done_events += 1
            if view.done_events == 1:
                view.state = "failed"
                view.error = record.get("error")

    def non_terminal(self) -> list[JobView]:
        return [view for view in self.jobs.values() if not view.terminal]

    def double_committed(self) -> list[str]:
        """Job ids with more than one terminal record — must stay empty."""
        return sorted(
            view.job_id
            for view in self.jobs.values()
            if view.done_events > 1
        )

    def tokens_monotonic(self) -> bool:
        return all(a < b for a, b in zip(self.tokens, self.tokens[1:]))


def _count_lease_metric(name: str) -> None:
    if obs.get_metrics().enabled:
        obs.counter(name).inc()


class ClusterStore:
    """One replica's handle on the shared cluster directory.

    Composes the journal, the lease manager, and the shared result-store
    mirror, and owns every multi-step transition that must be atomic
    under the cluster lock (register, adopt, commit).
    """

    def __init__(
        self,
        root: Path,
        replica: str,
        recipe: dict,
        ttl: float = 5.0,
        jitter_seed: int = 0,
        clock: Callable[[], float] = time.time,
        chaos_plan: FaultPlan | None = None,
        bucket_capacity: float = 8.0,
        bucket_refill: float = 4.0,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.replica = replica
        self.clock = clock
        self.leases = LeaseManager(
            self.root,
            replica,
            ttl=ttl,
            jitter_seed=jitter_seed,
            clock=clock,
        )
        self.ledger = JobLedger(
            self.root / "ledger.jsonl", self.leases._lock_path
        )
        digest = hashlib.sha256(
            json.dumps(recipe, sort_keys=True).encode()
        ).hexdigest()[:12]
        self.store_path = self.root / f"store-{digest}.json"
        self._chaos = chaos_plan
        self._flushes = 0
        self.events: list[dict] = []
        """Chaos events fired inside mirror flushes (``persist.*`` audit)."""
        self._mirror: dict[str, dict] = {}
        self._mirror_stamp: tuple | None = None
        self._mirror_lock = threading.Lock()
        self._fold = ClusterFold(bucket_capacity, bucket_refill)
        self._fold_lock = threading.Lock()
        self.fencing_rejections = 0
        self.duplicate_commits = 0

    # -- journal helpers ------------------------------------------------------

    def _record(self, event: str, job_id: str, **fields) -> dict:
        record = {
            "event": event,
            "job_id": job_id,
            "replica": self.replica,
            "ts": round(self.clock(), 6),
        }
        record.update(fields)
        return record

    def journal(self, event: str, job_id: str, **fields) -> None:
        with file_lock(self.leases._lock_path):
            self._append_locked(self._record(event, job_id, **fields))

    def _append_locked(self, record: dict) -> None:
        """Journal one record under the held cluster lock, folding it at
        once when no peer record is unread before it."""
        with self._fold_lock:
            if self.ledger.append_locked(record, consume=True):
                self._fold.apply(record)

    def _refresh_locked(self) -> ClusterFold:
        with self._fold_lock:
            for record in self.ledger.poll():
                self._fold.apply(record)
            return self._fold

    def fold(self) -> ClusterFold:
        """The current cluster state (incremental journal refresh)."""
        with file_lock(self.leases._lock_path):
            return self._refresh_locked()

    # -- lifecycle transitions ------------------------------------------------

    def register(self, job_id: str, spec_payload: dict) -> Lease:
        """Journal a fresh submission and lease it to this replica, as one
        atomic step — there is never a journaled job without an owner."""
        with file_lock(self.leases._lock_path):
            self._append_locked(
                self._record("submitted", job_id, spec=spec_payload)
            )
            lease = self.leases._grant_locked(job_id)
            self._append_locked(
                self._record("leased", job_id, token=lease.token)
            )
        self.leases.acquired += 1
        _count_lease_metric("service.lease_acquired")
        return lease

    def mark_running(self, job_id: str, token: int) -> None:
        self.journal("running", job_id, token=token)

    def adopt_orphans(self) -> list[tuple[str, dict, Lease]]:
        """Scan for orphaned jobs and take them over.

        Orphaned = journaled non-terminal and either explicitly drained,
        holding an expired lease, or lease-less for longer than one TTL
        (a torn submission).  All checks and the takeover happen under
        one cluster lock, so of N racing replicas exactly one adopts any
        given job.
        """
        adopted: list[tuple[str, dict, Lease]] = []
        now = self.clock()
        ttl = self.leases.ttl
        with file_lock(self.leases._lock_path):
            fold = self._refresh_locked()
            for view in sorted(fold.non_terminal(), key=lambda v: v.job_id):
                if view.spec is None:
                    continue
                lease = self.leases._read_locked(view.job_id)
                if lease is not None:
                    if not self.leases.is_expired(lease, now):
                        continue
                elif view.state != "drained" and now - view.last_ts < ttl:
                    # Recently journaled and never leased: give the
                    # submitting replica its grace window before
                    # concluding the submission tore.
                    continue
                fresh = self.leases._grant_locked(view.job_id)
                self._append_locked(
                    self._record("adopted", view.job_id, token=fresh.token)
                )
                adopted.append((view.job_id, dict(view.spec), fresh))
        self.leases.adopted += len(adopted)
        for _ in adopted:
            _count_lease_metric("service.lease_adopted")
        return adopted

    def drain(self, job_ids: list[str]) -> None:
        """Give up ownership of non-terminal jobs at shutdown: journal the
        handoff and release the leases so peers adopt immediately."""
        with file_lock(self.leases._lock_path):
            for job_id in job_ids:
                self._append_locked(self._record("drained", job_id))
                lease = self.leases._read_locked(job_id)
                if lease is not None and lease.owner == self.replica:
                    try:
                        self.leases._lease_path(job_id).unlink()
                    except OSError:  # pragma: no cover - already gone
                        pass
        with self.leases._held_lock:
            for job_id in job_ids:
                self.leases._held.pop(job_id, None)

    # -- tenant quotas --------------------------------------------------------

    def debit(self, tenant: str, cost: float = 1.0) -> float:
        """Take ``cost`` tokens from the tenant's cluster-wide bucket.

        Returns 0.0 and appends one ``debit`` record if the bucket holds
        them, else the seconds until it will (nothing is written).
        """
        now = self.clock()
        with file_lock(self.leases._lock_path):
            wait = self._refresh_locked().bucket(tenant).wait(now, cost)
            if wait == 0.0:
                self._append_locked(
                    {
                        "event": "debit",
                        "tenant": tenant,
                        "cost": cost,
                        "replica": self.replica,
                        "ts": now,
                    }
                )
        return wait

    def balance(self, tenant: str) -> float:
        """Tokens the tenant's bucket holds now."""
        now = self.clock()
        return self.fold().bucket(tenant).level(now)

    def tenants(self) -> list[str]:
        """Every tenant with a debit in the ledger."""
        return sorted(self.fold().quotas)

    # -- the fencing boundary -------------------------------------------------

    def _check_commit_locked(self, job_id: str, token: int) -> None:
        fold = self._refresh_locked()
        view = fold.jobs.get(job_id)
        if view is not None and view.terminal:
            self.duplicate_commits += 1
            raise DuplicateCommitError(
                f"job {job_id} is already terminal ({view.state})",
                context={"job_id": job_id},
            )
        current = self.leases._read_locked(job_id)
        current_token = max(
            current.token if current is not None else 0,
            view.token if view is not None else 0,
        )
        if current_token > token:
            self.fencing_rejections += 1
            _count_lease_metric("service.fencing_rejected")
            self._append_locked(
                self._record("fenced", job_id, token=token)
            )
            raise StaleWriterError(
                f"commit for {job_id} carries stale token {token} "
                f"(current {current_token})",
                context={"job_id": job_id, "token": token},
            )

    def _release_locked(self, job_id: str, token: int) -> None:
        current = self.leases._read_locked(job_id)
        if current is not None and current.token == token:
            try:
                self.leases._lease_path(job_id).unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        with self.leases._held_lock:
            self.leases._held.pop(job_id, None)

    def commit(
        self,
        job_id: str,
        spec_id: str,
        outcomes: dict,
        token: int,
        executed: bool = True,
        chaos_events: list | None = None,
        merge_store: bool = True,
    ) -> None:
        """Commit a job's cells: the at-most-once boundary.

        Under the cluster lock: reject if terminal (duplicate) or fenced
        (stale token); otherwise journal the ``done`` record, fold the
        cells into the shared store mirror (unless ``merge_store`` is
        off — ad-hoc jobs have no corpus identity to cache under), and
        release the lease.
        """
        with file_lock(self.leases._lock_path):
            self._check_commit_locked(job_id, token)
            self._append_locked(
                self._record(
                    "done",
                    job_id,
                    token=token,
                    spec_id=spec_id,
                    outcomes=outcomes,
                    executed=executed,
                    chaos=list(chaos_events or []),
                )
            )
            if merge_store:
                self._merge_store_locked(spec_id, outcomes)
            self._release_locked(job_id, token)

    def commit_failed(self, job_id: str, token: int, error: str) -> None:
        """Journal a FAILED terminal state (same fencing rules: a fenced
        replica's failure must not clobber an adopted healthy run)."""
        with file_lock(self.leases._lock_path):
            self._check_commit_locked(job_id, token)
            self._append_locked(
                self._record("failed", job_id, token=token, error=error)
            )
            self._release_locked(job_id, token)

    # -- the shared store mirror ----------------------------------------------

    def _mirror_stamp_now(self) -> tuple | None:
        try:
            stat = os.stat(self.store_path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    def _mirror_view_locked(self) -> dict:
        """The in-memory mirror, re-read only when the file changed.  The
        file is replaced by rename, so no cluster lock is needed; a
        corrupt file reads as a miss, rebuilt by future commits."""
        stamp = self._mirror_stamp_now()
        if stamp != self._mirror_stamp:
            cells: dict = {}
            if stamp is not None:
                try:
                    payload = load_json(
                        self.store_path, schema=CLUSTER_STORE_SCHEMA
                    )
                    cells = {
                        spec_id: dict(row) for spec_id, row in payload.items()
                    }
                except (CacheCorruptionError, AttributeError):
                    cells = {}
            self._mirror, self._mirror_stamp = cells, stamp
        return self._mirror

    def _merge_store_locked(self, spec_id: str, outcomes: dict) -> None:
        with self._mirror_lock:
            cells = dict(self._mirror_view_locked())
            row = dict(cells.get(spec_id, {}))
            for technique, cell in outcomes.items():
                if cell.get("status") != "timeout":
                    row[technique] = dict(cell)
            cells[spec_id] = row
            # The chaos scope injects ``persist.*`` faults into the mirror
            # write.  The view keeps the merged cells either way, so a
            # corrupted flush is healed by the next one; a peer or a
            # restart reads the damage as a miss.
            with chaos.install(
                self._chaos, salt=f"store:{self._flushes}"
            ) as scope:
                self._flushes += 1
                atomic_write_json(
                    self.store_path, cells, schema=CLUSTER_STORE_SCHEMA
                )
            if scope is not None:
                self.events.extend(event.to_json() for event in scope.events)
            self._mirror, self._mirror_stamp = cells, self._mirror_stamp_now()

    def lookup(self, spec_id: str) -> dict:
        """The shared store's row for one spec (read-only; tolerant)."""
        with self._mirror_lock:
            return self._mirror_view_locked().get(spec_id, {})

    def missing(self, spec_id: str, techniques: tuple[str, ...]) -> tuple[str, ...]:
        row = self.lookup(spec_id)
        return tuple(t for t in techniques if t not in row)

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict:
        with self.leases._held_lock:
            held = sorted(self.leases._held)
        return {
            "replica": self.replica,
            "leases_held": held,
            "lease_ttl": self.leases.ttl,
            "acquired": self.leases.acquired,
            "adopted": self.leases.adopted,
            "lost": self.leases.lost,
            "fencing_rejections": self.fencing_rejections,
            "duplicate_commits": self.duplicate_commits,
            "ledger_records": self.ledger.records_read,
            "ledger_corrupt_lines": self.ledger.corrupt_lines,
        }
