"""The cluster job ledger: an append-only journal that is also the
result store.

The replicated service tier (`repro serve --cluster-dir ...`) has no
coordinator process; the shared directory *is* the cluster. Its source of
truth is the :class:`JobLedger` — an append-only, schema-stamped journal
of job state transitions (``submitted`` → ``leased`` → ``running`` →
``done``/``failed``/``drained``, plus ``adopted`` and ``fenced`` audit
records), of the ``renewed`` records the heartbeat appends, and of the
tenant quota ``debit`` records admission appends.  Any replica — or a
post-mortem tool — can replay it after a ``kill -9`` and reconstruct the
exact cluster state: which jobs exist, who owns them under which fencing
token until when, which results committed, and what each tenant has
spent.

Durability of the append path is torn-write-proof by construction: every
record is written as ``\\n<json>\\n`` in a single ``O_APPEND`` write
under the cluster lock.  A record half-written by a dying replica is a
junk line that the tolerant replayer skips (and counts); the *leading*
newline of the next append guarantees the junk never corrupts a healthy
neighbour.  A record is only *real* once it parses — which is exactly
the at-most-once commit rule: a commit whose append tore simply never
happened, the job's lease expires, and a surviving replica adopts and
re-executes it.

**Leases are ledger records.**  A job is owned by the replica named in
its latest ``leased``/``adopted`` record, under that record's fencing
token, until its ``expires_at``; a ``renewed`` record (one per heartbeat,
listing the replica's ``{job_id: token}`` pairs) moves the expiry of
every pair whose token is still current, and a terminal or ``drained``
record ends ownership.  Expiry is boundary-inclusive (``now >=
expires_at``).  A fresh token is 1 + the largest token the fold has seen,
drawn under the cluster lock right after the fold catches up, so the
token order totally orders every ownership change.  Heartbeat pacing is
deterministically jittered — each beat's delay is a third of the TTL
scaled by a factor drawn from ``sha256(seed:replica:beat)`` — so a fleet
started together does not renew in lockstep, yet every schedule
reproduces.

:class:`ClusterStore` is the facade one replica holds: the journal
and the in-memory fold of it.  A lone daemon is a one-replica cluster
over ``<socket>.cluster``; there is no other durability path, and the
directory holds nothing but the ledger and its lock file.
:meth:`~ClusterStore.commit` is the **fencing boundary**: under the
cluster lock it rejects commits for already-terminal jobs
(:class:`DuplicateCommitError`) and commits carrying a stale fencing
token (:class:`StaleWriterError`) — so a paused-then-resumed replica can
never double-commit a cell, no matter how late it wakes up.

**The result store is the fold.**  A corpus job's ``done`` record
carries a store key, a digest of the daemon's recipe and the job's run
seed; the fold indexes the record's non-timeout cells under (key,
``spec_id``).  A cell is only ever served to a job with the same recipe
and run seed as the one that computed it.  ``done`` records without a
key (ad-hoc jobs) are never served.

All mutations serialize through one cluster lock file via ``flock``; the
OS releases the lock when a holder dies, so a ``kill -9`` mid-operation
never wedges the cluster.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro import obs
from repro.runtime.errors import CacheCorruptionError
from repro.runtime.retry import jitter_factor
from repro.service.admission import TokenBucket
from repro.service.protocol import ServiceError, canonical_json

try:  # POSIX only; the service tier is unix-socket based anyway.
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None  # type: ignore[assignment]

LEDGER_SCHEMA = "repro-cluster-ledger/1"
"""First line of every ledger file; bump on any record-shape change."""

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
also carries heartbeat ``renewed`` and tenant ``debit`` records, which
belong to no job."""

TERMINAL_EVENTS = frozenset({"done", "failed"})

_LEASE_ENDED = TERMINAL_EVENTS | {"drained"}
"""Job states in which the last lease no longer owns the job; only a
new ``adopted`` lease owns a drained job."""

_FIELD_TYPES = (
    ("token", int),
    ("ts", (int, float)),
    ("cost", (int, float)),
    ("expires_at", (int, float)),
    ("spec", dict),
    ("outcomes", dict),
    ("chaos", list),
)
"""The fields the fold converts, and the types each must have."""


def _well_typed(record: dict) -> bool:
    """Whether every field the fold converts has its type.  A record
    that does not is as unusable as a torn line: the fold could not
    apply it."""
    for name, kinds in _FIELD_TYPES:
        if name in record:
            value = record[name]
            if isinstance(value, bool) or not isinstance(value, kinds):
                return False
    return True


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
    call).  Corrupt lines — torn appends from dead replicas, and records
    with a field of the wrong type — are skipped and counted, never
    fatal.
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
            if not isinstance(record, dict) or not _well_typed(record):
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
    expires_at: float = 0.0
    """When the current lease lapses unless renewed (``leased``,
    ``adopted`` and ``renewed`` records move it)."""
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

    def held_under(self, token) -> bool:
        """Whether ``token`` is the live lease: the job's current token
        on a job no terminal or ``drained`` record has ended."""
        return self.token == token and self.state not in _LEASE_ENDED


class ClusterFold:
    """The ledger reduced to per-job state and leases, the fencing-token
    trail, one token bucket per tenant, and the result store.

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
        self.max_token = 0
        """The largest token any folded record carries; the next one
        drawn is one more."""
        self.fenced_commits = 0
        self.cells: dict[tuple[str, str], dict[str, dict]] = {}
        """The result store: the non-timeout cells of every job's first
        ``done`` record, by (store key, ``spec_id``).  A row is replaced,
        never changed in place, so a lookup may hand it out."""

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
        if event == "renewed":
            leases = record.get("leases")
            if isinstance(leases, dict):
                expires_at = float(record.get("expires_at", 0.0))
                for job_id, token in leases.items():
                    if not isinstance(token, int):
                        continue
                    self.max_token = max(self.max_token, token)
                    view = self.jobs.get(job_id)
                    if view is not None and view.held_under(token):
                        view.expires_at = expires_at
            return
        job_id = record.get("job_id")
        if event not in LEDGER_EVENTS or not isinstance(job_id, str):
            return
        view = self.jobs.setdefault(job_id, JobView(job_id=job_id))
        view.last_ts = float(record.get("ts", view.last_ts))
        if isinstance(record.get("token"), int):
            self.max_token = max(self.max_token, record["token"])
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
            view.expires_at = float(record.get("expires_at", 0.0))
            if event == "adopted":
                view.adoptions += 1
            if not view.terminal:
                view.state = "leased"
            return
        if event == "running":
            if view.state not in _LEASE_ENDED:
                view.state = "running"
            return
        if event == "drained":
            # Only the live lease can hand a job back; a drain under a
            # token someone has since fenced away changes nothing.
            if view.held_under(record.get("token")):
                view.state = "drained"
            return
        if event == "done":
            view.done_events += 1
            if view.done_events == 1:
                view.state = "done"
                view.outcomes = dict(record.get("outcomes", {}))
                view.executed = bool(record.get("executed", False))
                view.chaos_events = list(record.get("chaos", []))
                self._index_cells(
                    record.get("key"), record.get("spec_id"), view.outcomes
                )
            return
        if event == "failed":
            view.done_events += 1
            if view.done_events == 1:
                view.state = "failed"
                view.error = record.get("error")

    def _index_cells(self, key, spec_id, outcomes: dict) -> None:
        if not isinstance(key, str) or not isinstance(spec_id, str):
            return
        row = dict(self.cells.get((key, spec_id), {}))
        for technique, cell in outcomes.items():
            if isinstance(cell, dict) and cell.get("status") != "timeout":
                row[technique] = dict(cell)
        self.cells[(key, spec_id)] = row

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

    Composes the journal and its fold, and owns every multi-step
    transition that must be atomic under the cluster lock (register,
    adopt, renew, commit, drain).  ``recipe`` holds everything besides
    the run seed that changes cell values; with the seed it keys the
    result store.  The leases this replica holds are mirrored in memory
    (``{job_id: token}``) so the heartbeat knows what to renew; the fold
    is the source of truth.
    """

    def __init__(
        self,
        root: Path,
        replica: str,
        recipe: dict,
        ttl: float = 5.0,
        jitter_seed: int = 0,
        clock: Callable[[], float] = time.time,
        bucket_capacity: float = 8.0,
        bucket_refill: float = 4.0,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.replica = replica
        self.ttl = float(ttl)
        self.jitter_seed = jitter_seed
        self.clock = clock
        self.lock_path = self.root / ".cluster.lock"
        self.ledger = JobLedger(self.root / "ledger.jsonl", self.lock_path)
        self._recipe = recipe
        self._keys: dict[int, str] = {}
        self._fold = ClusterFold(bucket_capacity, bucket_refill)
        self._fold_lock = threading.Lock()
        self._held: dict[str, int] = {}
        self._held_lock = threading.Lock()
        self.acquired = 0
        self.adopted = 0
        self.lost = 0
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
        with file_lock(self.lock_path):
            self._append_locked(self._record(event, job_id, **fields))

    def _append_locked(self, record: dict) -> None:
        """Journal one record under the held cluster lock, folding it at
        once when no peer record is unread before it."""
        with self._fold_lock:
            if self.ledger.append_locked(record, consume=True):
                self._fold.apply(record)

    def _refresh(self) -> ClusterFold:
        """Fold the records appended since the last refresh.  A poll
        consumes whole lines only, so this is safe without the cluster
        lock; every decision that must see all records takes it first."""
        with self._fold_lock:
            for record in self.ledger.poll():
                self._fold.apply(record)
            return self._fold

    def fold(self) -> ClusterFold:
        """The current cluster state (incremental journal refresh)."""
        with file_lock(self.lock_path):
            return self._refresh()

    # -- leases ---------------------------------------------------------------

    def _grant_locked(self, event: str, job_id: str) -> int:
        """Lease a job to this replica under a fresh fencing token: one
        more than any token the caught-up fold has seen.  The refresh
        also folds an own record that landed behind a torn tail, so two
        grants under one lock never draw the same token."""
        token = self._refresh().max_token + 1
        now = self.clock()
        self._append_locked(
            self._record(
                event, job_id, token=token, expires_at=round(now + self.ttl, 6)
            )
        )
        with self._held_lock:
            self._held[job_id] = token
        return token

    def _release_locked(self, job_id: str, token: int) -> None:
        with self._held_lock:
            if self._held.get(job_id) == token:
                del self._held[job_id]

    def renew(self) -> list[str]:
        """One heartbeat: extend every lease this replica still holds with
        one ``renewed`` record, and return (and forget) the job ids the
        fold shows were fenced away or finished elsewhere.  Holding no
        job, it takes no lock and writes nothing."""
        if not self._held:
            return []
        now = self.clock()
        with file_lock(self.lock_path):
            jobs = self._refresh().jobs
            with self._held_lock:
                lost = sorted(
                    job_id
                    for job_id, token in self._held.items()
                    if job_id not in jobs or not jobs[job_id].held_under(token)
                )
                for job_id in lost:
                    del self._held[job_id]
                kept = dict(sorted(self._held.items()))
            if kept:
                self._append_locked(
                    {
                        "event": "renewed",
                        "replica": self.replica,
                        "ts": round(now, 6),
                        "expires_at": round(now + self.ttl, 6),
                        "leases": kept,
                    }
                )
        self.lost += len(lost)
        return lost

    def heartbeat_delay(self, beat: int) -> float:
        """Delay before heartbeat number ``beat``: a third of the TTL
        scaled by :func:`~repro.runtime.retry.jitter_factor` of
        ``seed:replica:beat``."""
        return self.ttl / 3.0 * jitter_factor(
            f"{self.jitter_seed}:{self.replica}:{beat}"
        )

    # -- lifecycle transitions ------------------------------------------------

    def register(self, job_id: str, spec_payload: dict) -> int:
        """Journal a fresh submission and lease it to this replica, as one
        atomic step — there is never a journaled job without an owner.
        Returns the lease's fencing token."""
        with file_lock(self.lock_path):
            self._append_locked(
                self._record("submitted", job_id, spec=spec_payload)
            )
            token = self._grant_locked("leased", job_id)
        self.acquired += 1
        _count_lease_metric("service.lease_acquired")
        return token

    def mark_running(self, job_id: str, token: int) -> None:
        self.journal("running", job_id, token=token)

    def adopt_orphans(self) -> list[tuple[str, dict, int]]:
        """Scan for orphaned jobs and take them over, returning
        ``(job_id, spec, token)`` for each.

        Orphaned = journaled non-terminal and either explicitly drained,
        holding a lease that expired (``now >= expires_at``, whoever held
        it — a replica restarted under the same id included), or never
        leased for at least one TTL (a torn submission).  All checks and
        the takeover happen under one cluster lock, so of N racing
        replicas exactly one adopts any given job.
        """
        adopted: list[tuple[str, dict, int]] = []
        now = self.clock()
        with file_lock(self.lock_path):
            fold = self._refresh()
            for view in sorted(fold.non_terminal(), key=lambda v: v.job_id):
                if view.spec is None:
                    continue
                if view.state != "drained":
                    if view.token and now < view.expires_at:
                        continue
                    if not view.token and now - view.last_ts < self.ttl:
                        # Recently journaled and never leased: give the
                        # submitting replica its grace window before
                        # concluding the submission tore.
                        continue
                token = self._grant_locked("adopted", view.job_id)
                adopted.append((view.job_id, dict(view.spec), token))
        self.adopted += len(adopted)
        for _ in adopted:
            _count_lease_metric("service.lease_adopted")
        return adopted

    def drain(self) -> None:
        """Hand every held lease back at shutdown: journal ``drained``
        under each lease's token so peers (or a restart) adopt at once."""
        with file_lock(self.lock_path):
            with self._held_lock:
                held, self._held = sorted(self._held.items()), {}
            for job_id, token in held:
                self._append_locked(
                    self._record("drained", job_id, token=token)
                )

    # -- tenant quotas --------------------------------------------------------

    def debit(self, tenant: str, cost: float = 1.0) -> float:
        """Take ``cost`` tokens from the tenant's cluster-wide bucket.

        Returns 0.0 and appends one ``debit`` record if the bucket holds
        them, else the seconds until it will (nothing is written).
        """
        now = self.clock()
        with file_lock(self.lock_path):
            wait = self._refresh().bucket(tenant).wait(now, cost)
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
        view = self._refresh().jobs.get(job_id)
        if view is None:
            return
        if view.terminal:
            self.duplicate_commits += 1
            raise DuplicateCommitError(
                f"job {job_id} is already terminal ({view.state})",
                context={"job_id": job_id},
            )
        # Fenced by a newer lease, or handed back by a drain (a worker
        # finishing during shutdown): either way this writer's lease
        # has ended, and the job's next owner re-runs it.
        if not view.held_under(token):
            self.fencing_rejections += 1
            _count_lease_metric("service.fencing_rejected")
            self._append_locked(
                self._record("fenced", job_id, token=token)
            )
            raise StaleWriterError(
                f"commit for {job_id} carries stale token {token} "
                f"(current {view.token}, {view.state})",
                context={"job_id": job_id, "token": token},
            )

    def commit(
        self,
        job_id: str,
        spec_id: str,
        outcomes: dict,
        token: int,
        executed: bool = True,
        chaos_events: list | None = None,
        seed: int | None = None,
    ) -> None:
        """Commit a job's cells: the at-most-once boundary.

        Under the cluster lock: reject if terminal (duplicate) or fenced
        (stale token); otherwise journal the ``done`` record, which ends
        the lease.  A corpus job passes its run ``seed``, and the record
        carries the store key its cells are served under; ad-hoc jobs
        have no corpus identity to store under.
        """
        stored = {} if seed is None else {"key": self.store_key(seed)}
        with file_lock(self.lock_path):
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
                    **stored,
                )
            )
            self._release_locked(job_id, token)

    def commit_failed(self, job_id: str, token: int, error: str) -> None:
        """Journal a FAILED terminal state (same fencing rules: a fenced
        replica's failure must not clobber an adopted healthy run)."""
        with file_lock(self.lock_path):
            self._check_commit_locked(job_id, token)
            self._append_locked(
                self._record("failed", job_id, token=token, error=error)
            )
            self._release_locked(job_id, token)

    # -- the result store -----------------------------------------------------

    def store_key(self, seed: int) -> str:
        """The key of the cells computed under this recipe at run seed
        ``seed``, computed once per seed."""
        key = self._keys.get(seed)
        if key is None:
            payload = json.dumps([self._recipe, seed], sort_keys=True)
            key = hashlib.sha256(payload.encode()).hexdigest()[:12]
            self._keys[seed] = key
        return key

    def lookup(self, spec_id: str, seed: int) -> dict:
        """The stored cells of one spec at run seed ``seed``, by
        technique.  It takes no cluster lock and writes nothing."""
        key = self.store_key(seed)
        return self._refresh().cells.get((key, spec_id), {})

    def missing(
        self, spec_id: str, seed: int, techniques: tuple[str, ...]
    ) -> tuple[str, ...]:
        row = self.lookup(spec_id, seed)
        return tuple(t for t in techniques if t not in row)

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict:
        with self._held_lock:
            held = sorted(self._held)
        return {
            "replica": self.replica,
            "leases_held": held,
            "lease_ttl": self.ttl,
            "acquired": self.acquired,
            "adopted": self.adopted,
            "lost": self.lost,
            "fencing_rejections": self.fencing_rejections,
            "duplicate_commits": self.duplicate_commits,
            "ledger_records": self.ledger.records_read,
            "ledger_corrupt_lines": self.ledger.corrupt_lines,
        }


class HeartbeatLoop:
    """The background renewal thread one cluster replica runs.

    Each tick is one :meth:`ClusterStore.renew`; every job the fold shows
    was fenced away fires ``on_lost(job_id)`` once, so the daemon can
    stop trusting its in-flight execution of that job (the commit path
    would fence it anyway — this is the early warning)."""

    def __init__(
        self,
        store: ClusterStore,
        on_lost: Callable[[str], None] | None = None,
    ) -> None:
        self.store = store
        self.on_lost = on_lost
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.beats = 0

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-lease-heartbeat-{self.store.replica}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def beat(self) -> None:
        self.beats += 1
        for job_id in self.store.renew():
            if self.on_lost is not None:
                self.on_lost(job_id)

    def _run(self) -> None:
        while not self._stop.wait(self.store.heartbeat_delay(self.beats)):
            try:
                self.beat()
            except OSError:  # pragma: no cover - transient fs trouble
                continue
