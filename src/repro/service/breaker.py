"""Circuit breakers: fast-fail around dependencies that are failing.

A flapping LLM backend (or an analyzer driven into pathological inputs)
must not let every queued job grind through full retry schedules before
failing — that converts one dependency outage into fleet-wide latency.
The breaker watches *classified* error rates (the
:mod:`repro.runtime.errors` taxonomy, not raw exception types) over a
sliding window of calls and trips **open** when the rate crosses the
threshold; while it is open the daemon rejects jobs that need the
dependency with a ``retry_after`` hint.
After a cooldown the breaker goes **half-open** and admits a bounded
number of probe calls: all succeeding closes it, any failing re-opens it.

Determinism: the breaker never reads the wall clock itself — the clock is
injected (``time.monotonic`` by default), so tests and the chaos drills
drive transitions with a fake clock and the state machine is a pure
function of the recorded call sequence.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro import obs

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery tuning for one breaker."""

    window: int = 16
    """Sliding window length, in calls."""
    min_calls: int = 4
    """Never judge a rate over fewer calls than this."""
    failure_rate: float = 0.5
    """Trip when ``failures / window_calls`` reaches this fraction."""
    cooldown: float = 30.0
    """Seconds to stay open before half-open probing."""
    half_open_probes: int = 1
    """Probe calls admitted while half-open; all must succeed to close."""

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, got {self.min_calls}")
        if not 0.0 < self.failure_rate <= 1.0:
            raise ValueError(
                f"failure_rate must be in (0, 1], got {self.failure_rate}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """The classic three-state breaker with an injected clock."""

    def __init__(
        self,
        name: str,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.config = config or BreakerConfig()
        self._clock = clock
        self._state = CLOSED
        self._window: deque[bool] = deque(maxlen=self.config.window)
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0
        # Lifetime accounting (never reset; snapshot/report material).
        self.calls = 0
        self.failures = 0
        self.opens = 0
        self.last_failure_code: str | None = None

    # -- state machine --------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, advancing open→half-open when cooldown elapsed."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.config.cooldown
        ):
            self._enter_half_open()
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  Half-open admits only the
        configured number of probes; everything else waits."""
        state = self.state
        if state == CLOSED:
            return True
        if state == OPEN:
            return False
        if self._probes_issued < self.config.half_open_probes:
            self._probes_issued += 1
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the breaker is worth another look (0 when calls
        are being admitted) — the hint surfaced in service rejections."""
        state = self.state
        if state == OPEN:
            return max(
                0.0, self.config.cooldown - (self._clock() - self._opened_at)
            )
        return 0.0

    def record_success(self) -> None:
        self.calls += 1
        if self.state == HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self._close()
            return
        self._window.append(False)

    def record_failure(self, code: str | None = None) -> None:
        self.calls += 1
        self.failures += 1
        if code is not None:
            self.last_failure_code = code
        if self.state == HALF_OPEN:
            # A failing probe proves the dependency is still bad.
            self._trip()
            return
        self._window.append(True)
        if len(self._window) >= self.config.min_calls:
            rate = sum(self._window) / len(self._window)
            if rate >= self.config.failure_rate and self._state == CLOSED:
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self.opens += 1
        self._window.clear()
        if obs.get_metrics().enabled:
            obs.counter("service.breaker_opens", breaker=self.name).inc()

    def _enter_half_open(self) -> None:
        self._state = HALF_OPEN
        self._probes_issued = 0
        self._probe_successes = 0

    def _close(self) -> None:
        self._state = CLOSED
        self._window.clear()
        if obs.get_metrics().enabled:
            obs.counter("service.breaker_closes", breaker=self.name).inc()

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "calls": self.calls,
            "failures": self.failures,
            "opens": self.opens,
            "last_failure_code": self.last_failure_code,
        }
