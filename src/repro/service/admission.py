"""Admission control: bounded queues and per-tenant token buckets.

The service's backpressure contract is *reject with retry-after*, never
*buffer without bound*: an overloaded daemon answers immediately with how
long to wait, so client fleets spread out instead of piling onto a queue
that grows until memory dies.  Two gates run in order:

1. **queue bound** — a hard cap on queued (not-yet-running) jobs.  Full
   queue → ``queue_full`` with a depth-scaled retry hint;
2. **tenant token bucket** — each tenant draws from a bucket refilled at
   a steady rate, so one chatty tenant cannot starve the rest.  Empty
   bucket → ``rate_limited`` with the exact time until the next token.

The buckets live in the cluster job ledger, not in process memory: an
admission appends one ``debit`` record
(:meth:`repro.service.ledger.ClusterStore.debit`), and the ledger fold
replays the debits per tenant into :class:`TokenBucket` state.  So a
tenant's budget survives daemon restarts and is enforced across the whole
fleet: N replicas draining one bucket admit no more than one would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.service.ledger import ClusterStore

_HORIZON = 3600.0
"""Cap on any retry-after answer: an unrefillable bucket still gets a
finite (if discouraging) hint instead of infinity, which would be
meaningless on the wire."""


class TokenBucket:
    """The standard token bucket, driven by explicit timestamps.

    Refill is continuous and capped, so the level at any instant depends
    only on the debits before it, not on when anyone looked — which is
    what lets a ledger fold replay the same buckets on every replica.
    """

    def __init__(self, capacity: float, refill_rate: float) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if refill_rate < 0:
            raise ValueError(f"refill_rate must be >= 0, got {refill_rate}")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self._tokens = float(capacity)
        self._updated = -math.inf

    def level(self, now: float) -> float:
        """Tokens held at ``now`` (refill applied, nothing taken)."""
        elapsed = max(0.0, now - self._updated)
        if self.refill_rate <= 0:
            return self._tokens
        return min(self.capacity, self._tokens + elapsed * self.refill_rate)

    def wait(self, now: float, cost: float = 1.0) -> float:
        """0.0 if ``cost`` tokens are available at ``now``, else the seconds
        until they will be (capped at an hour).  Takes nothing."""
        tokens = self.level(now)
        if tokens >= cost:
            return 0.0
        if self.refill_rate <= 0:
            return _HORIZON
        return min(_HORIZON, (cost - tokens) / self.refill_rate)

    def take(self, now: float, cost: float = 1.0) -> None:
        """Debit ``cost`` tokens at ``now`` (the caller checked :meth:`wait`)."""
        self._tokens = self.level(now) - cost
        self._updated = max(self._updated, now)


@dataclass(frozen=True)
class Admission:
    """One admission verdict."""

    admitted: bool
    reason: str = ""
    """``queue_full`` | ``rate_limited`` | ``""`` when admitted."""
    retry_after: float = 0.0


class AdmissionController:
    """The two-gate admission pipeline the daemon consults per submit."""

    def __init__(
        self,
        quotas: ClusterStore,
        max_queue: int = 64,
        queue_retry_after: float = 0.25,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.quotas = quotas
        self.max_queue = max_queue
        self.queue_retry_after = queue_retry_after
        self.admitted = 0
        self.rejected: dict[str, int] = {}

    def admit(self, tenant: str, queue_depth: int) -> Admission:
        """Gate one submission given the current queued-job count.

        Order matters: the queue bound is checked *before* the bucket so a
        full queue never consumes the tenant's tokens — a rejected client
        retries with its budget intact.
        """
        if queue_depth >= self.max_queue:
            # Scale the hint with how far over capacity we are: deeper
            # backlogs disperse retries further.
            hint = self.queue_retry_after * max(
                1.0, queue_depth / self.max_queue
            )
            return self._reject("queue_full", hint)
        wait = self.quotas.debit(tenant)
        if wait > 0:
            return self._reject("rate_limited", wait)
        self.admitted += 1
        return Admission(admitted=True)

    def _reject(self, reason: str, retry_after: float) -> Admission:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return Admission(admitted=False, reason=reason, retry_after=retry_after)

    def snapshot(self) -> dict:
        return {
            "max_queue": self.max_queue,
            "admitted": self.admitted,
            "rejected": dict(sorted(self.rejected.items())),
            "tenants": self.quotas.tenants(),
        }
