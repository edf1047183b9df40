"""Deterministic retry with exponential backoff.

Built for the LLM transport (real APIs rate-limit and drop connections)
but generic: any callable raising :class:`~repro.runtime.errors.TransientError`
can be wrapped.  Two properties matter for this repository:

- **determinism** — the backoff schedule is a pure function of the policy
  (no hidden clock reads, no process-global RNG).  Jitter — which fleet
  clients need so synchronized retries don't stampede a recovering
  backend — is opt-in via ``jitter_seed`` and *seeded*: the same seed
  always yields the same schedule, so even jittered runs reproduce;
- **injectable sleeping** — the default sleeper is ``None`` (no delay),
  which unit tests and the offline mock rely on; production adapters pass
  ``time.sleep``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.runtime.errors import TransientError

T = TypeVar("T")


def jitter_factor(key: str) -> float:
    """Seeded jitter: a factor in [0.5, 1.0) drawn from ``sha256(key)``.

    A pure function of ``key``, so every jittered schedule reproduces;
    callers fold their seed and step number into the key."""
    digest = hashlib.sha256(key.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
    return 0.5 + 0.5 * unit


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts to make and how long to wait between them."""

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter_seed: int | None = None
    """``None`` (the default): no jitter — the exponential schedule is
    exact and byte-identical across runs.  An integer: each delay is
    scaled by a deterministic factor in [0.5, 1.0) drawn from
    ``sha256(seed:attempt)`` — decorrelated enough to spread a retrying
    fleet (give each client its own seed), still a pure function of the
    policy."""

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        delay = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter_seed is not None:
            delay *= jitter_factor(f"{self.jitter_seed}:{attempt}")
        return delay

    def schedule(self) -> list[float]:
        """The full delay schedule — one entry per possible retry."""
        return [self.delay_for(i) for i in range(1, self.attempts)]


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (TransientError,),
    sleep: Callable[[float], None] | None = None,
    on_retry: Callable[[int, float, BaseException], None] | None = None,
) -> T:
    """Invoke ``fn``, retrying on the declared transient exceptions.

    The final failure propagates unchanged so callers see the real error.
    ``on_retry(attempt, delay, error)`` fires before each sleep — the hook
    the runner uses to count retries in failure telemetry.
    """
    policy = policy or RetryPolicy()
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except retry_on as error:
            if attempt == policy.attempts:
                raise
            delay = policy.delay_for(attempt)
            if on_retry is not None:
                on_retry(attempt, delay, error)
            if sleep is not None:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
