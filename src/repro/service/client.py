"""Blocking client for the repair service — ``repro submit`` and friends.

A deliberately small synchronous wrapper over the line-JSON protocol: one
socket, one request, read frames until done.  The retry loop in
:meth:`ServiceClient.submit_retrying` implements the client half of the
backpressure contract — honor ``retry_after`` exactly, never hammer — and
is what the load generator drives at fleet scale.

Replication makes transport failure routine rather than fatal, so the
client carries two recovery behaviours (both deterministic under
``retry_seed``, jittered by :func:`~repro.runtime.retry.jitter_factor`):

- **failover** — constructed with several socket paths, it rotates to the
  next live replica whenever connecting to the current one fails;
- **mid-stream reconnect** — if a watched submission's event stream dies
  (the daemon was killed), the client falls back to polling ``status``
  with seeded exponential backoff until the job reaches a terminal state
  on *some* replica, instead of surfacing a raw ``ConnectionError``.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.runtime.retry import jitter_factor
from repro.service.protocol import (
    TERMINAL_STATES,
    JobSpec,
    ProtocolError,
    ServiceError,
    decode_message,
    encode_message,
)


@dataclass
class SubmitOutcome:
    """What one submission attempt (or retry loop) produced."""

    accepted: bool
    job_id: str | None = None
    state: str | None = None
    """Terminal state when watched to completion (``done``/``failed``)."""
    outcomes: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    from_store: bool = False
    error: str | None = None
    rejections: list[dict] = field(default_factory=list)
    """Every ``reject`` frame seen along the way (reason + retry_after)."""
    reconnected: bool = False
    """The watch stream died and the outcome was recovered via ``status``
    polls (possibly against a different replica)."""

    @property
    def rejected(self) -> bool:
        return not self.accepted


def _record_state(outcome: SubmitOutcome, frame: dict) -> bool:
    """Copy a job's state from an ``event`` or ``status`` frame into
    ``outcome``, and its results too once terminal.  True when terminal."""
    outcome.state = frame.get("state")
    if outcome.state not in TERMINAL_STATES:
        return False
    outcome.outcomes = frame.get("outcomes", {})
    outcome.failures = frame.get("failures", [])
    outcome.from_store = bool(frame.get("from_store"))
    outcome.error = frame.get("error")
    return True


class ServiceClient:
    """One connection-per-request client for one or more daemon sockets."""

    def __init__(
        self,
        socket_path: str | Iterable[str],
        timeout: float = 120.0,
        retry_seed: int = 0,
        reconnect_attempts: int = 60,
        sleep=time.sleep,
    ) -> None:
        if isinstance(socket_path, str):
            paths: tuple[str, ...] = (socket_path,)
        else:
            paths = tuple(socket_path)
        if not paths:
            raise ValueError("need at least one socket path")
        self.socket_paths = paths
        self.timeout = timeout
        self.retry_seed = retry_seed
        self.reconnect_attempts = reconnect_attempts
        self._sleep = sleep
        self._active = 0
        self.failovers = 0
        """Times the active socket rotated to another replica."""
        self.reconnects = 0
        """Times a dead watch stream was recovered via status polling."""

    @property
    def socket_path(self) -> str:
        """The socket currently preferred (kept for single-socket callers)."""
        return self.socket_paths[self._active]

    # -- transport ------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """Seeded exponential backoff: base doubling capped at 1s, scaled
        by :func:`~repro.runtime.retry.jitter_factor` of
        ``retry_seed:attempt``."""
        return min(1.0, 0.05 * (2 ** min(attempt, 5))) * jitter_factor(
            f"{self.retry_seed}:{attempt}"
        )

    def _connect(self) -> socket.socket:
        """Connect to the active replica, failing over across the ring;
        raises only when *every* socket refuses."""
        last_error: OSError | None = None
        for offset in range(len(self.socket_paths)):
            index = (self._active + offset) % len(self.socket_paths)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.socket_paths[index])
            except OSError as error:
                sock.close()
                last_error = error
                continue
            if offset:
                self._active = index
                self.failovers += 1
            return sock
        raise ServiceError(
            f"cannot reach service at any of {list(self.socket_paths)}: "
            f"{last_error}",
            context={"sockets": list(self.socket_paths)},
        ) from last_error

    def _request(self, message: dict, n_frames: int = 1) -> list[dict]:
        """Send one frame, read ``n_frames`` responses, close."""
        with self._connect() as sock:
            sock.sendall(encode_message(message))
            reader = sock.makefile("rb")
            return [self._read_frame(reader) for _ in range(n_frames)]

    def _request_reconnecting(self, message: dict) -> dict:
        """One request, retried with seeded backoff while the transport is
        down — ``repro jobs`` against a restarting daemon waits it out
        instead of dying on the first refused connect."""
        last: ServiceError | None = None
        for attempt in range(self.reconnect_attempts):
            try:
                return self._request(message)[0]
            except ServiceError as error:
                last = error
                self._sleep(self._backoff(attempt))
        raise ServiceError(
            f"service unreachable after {self.reconnect_attempts} attempts: "
            f"{last}",
            context={"sockets": list(self.socket_paths)},
        ) from last

    @staticmethod
    def _read_frame(reader) -> dict:
        line = reader.readline()
        if not line:
            raise ServiceError("service closed the connection mid-response")
        return decode_message(line)

    # -- operations -----------------------------------------------------------

    def ping(self) -> dict:
        return self._request_reconnecting({"op": "ping"})

    def jobs(self) -> list[dict]:
        frame = self._request_reconnecting({"op": "jobs"})
        return frame.get("jobs", [])

    def stats(self) -> dict:
        return self._request_reconnecting({"op": "stats"}).get("stats", {})

    def status(self, job_id: str) -> dict:
        return self._request_reconnecting({"op": "status", "job_id": job_id})

    def drain(self, grace: float = 5.0) -> dict:
        return self._request({"op": "drain", "grace": grace})[0]

    def submit(self, spec: JobSpec, watch: bool = True) -> SubmitOutcome:
        """One submission attempt.  With ``watch`` the connection stays
        open streaming state events until the terminal frame; if the
        stream dies after the ack, the outcome is recovered via status
        polling rather than raised as a transport error."""
        outcome: SubmitOutcome | None = None
        try:
            with self._connect() as sock:
                sock.sendall(
                    encode_message(
                        {"op": "submit", "job": spec.to_json(), "watch": watch}
                    )
                )
                reader = sock.makefile("rb")
                first = self._read_frame(reader)
                if first.get("type") == "reject":
                    return SubmitOutcome(accepted=False, rejections=[first])
                if first.get("type") == "error":
                    raise ServiceError(
                        first.get("message", "submission failed"),
                        context={"code": first.get("code")},
                    )
                if first.get("type") != "ack":
                    raise ProtocolError(
                        f"expected ack, got {first.get('type')!r}"
                    )
                outcome = SubmitOutcome(
                    accepted=True,
                    job_id=first.get("job_id"),
                    state=first.get("state"),
                )
                if not watch:
                    return outcome
                while True:
                    frame = self._read_frame(reader)
                    if frame.get("type") == "event" and _record_state(
                        outcome, frame
                    ):
                        return outcome
        except (ServiceError, OSError) as error:
            if outcome is None or outcome.job_id is None or not watch:
                raise
            # The daemon died (or was killed) mid-stream.  The job was
            # acked, so *some* replica owns it — recover by polling.
            return self._watch_via_status(outcome, error)

    def _watch_via_status(
        self, outcome: SubmitOutcome, cause: Exception
    ) -> SubmitOutcome:
        self.reconnects += 1
        outcome.reconnected = True
        assert outcome.job_id is not None
        unknown = 0
        for attempt in range(self.reconnect_attempts):
            self._sleep(self._backoff(attempt))
            try:
                frame = self._request(
                    {"op": "status", "job_id": outcome.job_id}
                )[0]
            except (ServiceError, OSError):
                continue
            if frame.get("type") == "error":
                # A restarted or peer replica may briefly not know the
                # job until it replays the ledger / adopts it.
                unknown += 1
                continue
            if _record_state(outcome, frame):
                return outcome
        raise ServiceError(
            f"watch stream for {outcome.job_id} died ({cause}) and "
            f"{self.reconnect_attempts} status polls did not reach a "
            f"terminal state ({unknown} answered unknown-job)",
            context={"job_id": outcome.job_id},
        ) from cause

    def submit_retrying(
        self,
        spec: JobSpec,
        watch: bool = True,
        max_attempts: int = 40,
        max_wait: float = 2.0,
        sleep=time.sleep,
    ) -> SubmitOutcome:
        """The well-behaved client loop: on ``reject``, wait the hinted
        ``retry_after`` (capped at ``max_wait``) and try again.

        Gives up after ``max_attempts`` rejections, returning the rejected
        outcome with the full rejection history — the load generator
        counts those instead of raising.
        """
        rejections: list[dict] = []
        for _ in range(max_attempts):
            outcome = self.submit(spec, watch=watch)
            if outcome.accepted:
                outcome.rejections = rejections + outcome.rejections
                return outcome
            rejections.extend(outcome.rejections)
            hint = outcome.rejections[-1].get("retry_after", 0.1)
            sleep(min(max(float(hint), 0.01), max_wait))
        return SubmitOutcome(accepted=False, rejections=rejections)
