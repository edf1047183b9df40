"""The wire protocol and job vocabulary of the repair service.

Everything the daemon, the client, the cluster ledger, and the drills
agree on lives here, so the contract is auditable in one place:

- **framing** — one JSON object per line (``\\n``-terminated UTF-8) in
  both directions.  :func:`encode_message` / :func:`decode_message` are
  the only code that touches bytes; a malformed line raises
  :class:`ProtocolError` instead of leaking a ``json`` exception;
- **requests** — ``{"op": ...}`` objects: ``submit``, ``status``,
  ``jobs``, ``stats``, ``ping``, ``drain``;
- **responses** — ``{"type": ...}`` objects: ``ack``, ``reject``
  (admission said no — carries ``retry_after`` seconds, the backpressure
  contract), ``event`` (streamed job-state transitions), ``error``;
- **jobs** — a :class:`JobSpec` names the work (benchmark spec or ad-hoc
  source, techniques, seed, tenant, priority); it serializes to JSON for
  the wire *and* for the ledger's ``submitted`` records, which is what
  lets an adopting daemon re-hydrate pending jobs bit-for-bit.

The schema stamps follow the repository convention: bump on any shape
change so stale peers and stale durable files fail loudly as version
mismatches instead of misparsing.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any

from repro.runtime.errors import ReproError

PROTOCOL_SCHEMA = "repro-service/1"
"""Spoken version; the daemon stamps it into every ``ack`` and ``pong``."""

CLUSTER_REPORT_SCHEMA = "repro-cluster-chaos/1"
"""Schema of the ``repro chaos --cluster`` drill report."""


class ServiceError(ReproError):
    """The service layer failed outside any single job."""

    code = "service.error"


class ProtocolError(ReproError):
    """A malformed frame — unparsable line, wrong type, missing field."""

    code = "service.protocol"


class JobState(str, enum.Enum):
    """Lifecycle of one accepted job.  Rejected submissions never become
    jobs — rejection is an admission answer, not a state."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

LLM_TECHNIQUE_PREFIXES = ("Single-Round", "Multi-Round")
"""Technique families whose repair path calls the LLM transport — the set
the LLM circuit breaker gates.  ``Dynamic`` may escalate to LLM rounds,
so it is gated too."""


def uses_llm(technique: str) -> bool:
    """Whether a technique's repair path reaches the LLM client."""
    return technique.startswith(LLM_TECHNIQUE_PREFIXES) or technique == "Dynamic"


@dataclass(frozen=True)
class JobSpec:
    """Everything that *names* one job — the immutable submission payload.

    Serializable both ways so the identical object crosses the wire, the
    cluster ledger, and the drill's reference re-execution.
    """

    benchmark: str
    """``"arepair"`` / ``"alloy4fun"`` (daemon-loaded corpus) or
    ``"adhoc"`` (the spec source rides in ``source``)."""
    spec_id: str
    techniques: tuple[str, ...]
    seed: int = 0
    tenant: str = "default"
    priority: int = 0
    """Higher runs earlier; ties break longest-first, then FIFO."""
    source: str | None = None
    """Ad-hoc specification text (``benchmark == "adhoc"`` only).  Ad-hoc
    jobs are never cached in the result store — their ids carry no
    content identity."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "techniques", tuple(self.techniques))
        if not self.techniques:
            raise ValueError("a job needs at least one technique")
        if self.benchmark == "adhoc" and self.source is None:
            raise ValueError("adhoc jobs must carry the spec source")

    @property
    def needs_llm(self) -> bool:
        return any(uses_llm(t) for t in self.techniques)

    def to_json(self) -> dict:
        payload: dict[str, Any] = {
            "benchmark": self.benchmark,
            "spec_id": self.spec_id,
            "techniques": list(self.techniques),
            "seed": self.seed,
            "tenant": self.tenant,
            "priority": self.priority,
        }
        if self.source is not None:
            payload["source"] = self.source
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        try:
            return cls(
                benchmark=data["benchmark"],
                spec_id=data["spec_id"],
                techniques=tuple(data["techniques"]),
                seed=int(data.get("seed", 0)),
                tenant=str(data.get("tenant", "default")),
                priority=int(data.get("priority", 0)),
                source=data.get("source"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(
                f"malformed job spec: {error!r}", context={"data": str(data)[:200]}
            ) from error


@dataclass
class JobRecord:
    """One accepted job's mutable server-side state."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    outcomes: dict[str, dict] = field(default_factory=dict)
    """technique -> the cache-shaped cell payload (rep/tm/sm/status/...)."""
    failures: list[dict] = field(default_factory=list)
    """Crash-isolation records from the executor, as JSON payloads."""
    error: str | None = None
    """Why the job FAILED (never set for DONE jobs, however degraded)."""
    from_store: bool = False
    """Every cell was served from the incremental result store — nothing
    executed (the restart-resume fast path)."""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    adopted: bool = False
    """This replica took the job over from a dead or drained peer (cluster
    mode only) — the cells are still byte-identical, but operators want to
    see failovers."""
    lease_token: int = 0
    """The fencing token under which this replica owns the job (0 outside
    cluster mode)."""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def queue_wait(self) -> float | None:
        """Seconds between admission and execution start — the latency the
        availability SLO bounds at p99."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def summary(self) -> dict:
        """The wire projection (``status`` / ``jobs`` responses)."""
        payload = {
            "job_id": self.job_id,
            "state": self.state.value,
            "spec_id": self.spec.spec_id,
            "benchmark": self.spec.benchmark,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "techniques": list(self.spec.techniques),
            "from_store": self.from_store,
        }
        if self.adopted:
            payload["adopted"] = True
        if self.error is not None:
            payload["error"] = self.error
        return payload


# -- framing ------------------------------------------------------------------


canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
"""Compact JSON with sorted keys — the one encoding of frames and ledger
records.  Built once: ``json.dumps`` with options builds a new encoder
on every call."""


def encode_message(message: dict) -> bytes:
    """One frame: compact JSON, sorted keys, newline-terminated."""
    return (canonical_json(message) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    """Parse one frame, raising :class:`ProtocolError` on anything that is
    not a single JSON object."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"undecodable frame: {error}") from error
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            f"unparsable frame: {error}", context={"line": line[:200]}
        ) from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- response constructors ----------------------------------------------------


def ack_frame(job_id: str, state: JobState) -> dict:
    return {
        "type": "ack",
        "schema": PROTOCOL_SCHEMA,
        "job_id": job_id,
        "state": state.value,
    }


def reject_frame(reason: str, retry_after: float) -> dict:
    """The backpressure answer: *not now* — come back in ``retry_after``
    seconds.  Never buffers, never blocks the submitter."""
    return {
        "type": "reject",
        "schema": PROTOCOL_SCHEMA,
        "reason": reason,
        "retry_after": round(retry_after, 6),
    }


def event_frame(record: JobRecord, **extra: Any) -> dict:
    frame = {
        "type": "event",
        "job_id": record.job_id,
        "state": record.state.value,
    }
    if record.terminal:
        frame["outcomes"] = record.outcomes
        frame["failures"] = record.failures
        frame["from_store"] = record.from_store
        if record.error is not None:
            frame["error"] = record.error
    frame.update(extra)
    return frame


def error_frame(message: str, code: str = "service.error") -> dict:
    return {"type": "error", "code": code, "message": message}
