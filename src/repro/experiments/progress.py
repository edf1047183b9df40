"""Progress reporting for experiment runs, as a callback protocol.

The engine used to print progress straight to stderr, which made it
unusable as a library (callers got uncontrollable console noise) and
untestable (no way to observe progress programmatically).  Now the engine
emits events to a :class:`ProgressListener`; the default is silent, the
CLI installs :class:`ConsoleListener`, and tests install recorders.

The experiment engine invokes listeners only from its coordinating
thread, but the engine is no longer the only host: concurrent callers
(several ``run_matrix`` invocations, the service daemon) may share one
listener across threads.  :class:`ConsoleListener` therefore serializes
its output and state updates behind a lock; custom listeners that assume
a single caller should do the same or document the restriction.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Protocol

from repro.runtime.guard import FailureRecord, summarize_failures

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.runner import SpecOutcome


class ProgressListener(Protocol):
    """Receives engine events; all methods are fire-and-forget."""

    def on_cell(
        self, benchmark: str, outcome: "SpecOutcome", done: int, total: int
    ) -> None:
        """One (specification, technique) cell finished."""

    def on_shard_done(
        self,
        benchmark: str,
        spec_id: str,
        shards_done: int,
        total_shards: int,
        elapsed: float,
        cells: int,
    ) -> None:
        """One specification's shard finished: its ``cells`` pending cells
        took ``elapsed`` seconds."""

    def on_failure(self, benchmark: str, failure: FailureRecord) -> None:
        """One cell was crash-isolated into a failure record."""


class NullListener:
    """The library default: complete silence."""

    def on_cell(self, benchmark, outcome, done, total) -> None:
        pass

    def on_shard_done(
        self, benchmark, spec_id, shards_done, total_shards, elapsed, cells
    ) -> None:
        pass

    def on_failure(self, benchmark, failure) -> None:
        pass


NULL_LISTENER = NullListener()


class ConsoleListener:
    """The CLI's listener: the engine's historical console output.

    Prints a progress line every ``every`` completed cells and, when a
    benchmark's last shard lands, a summary of any isolated failures.
    Tracks state per benchmark so one instance can watch several runs.
    With ``verbose``, every completed shard gets a one-line timing summary
    (spec, cell count, elapsed) instead of finishing silently.

    Thread-safe: a lock serializes both the failure bookkeeping and the
    prints, so events from concurrent hosts never interleave mid-line.
    """

    def __init__(self, every: int = 25, verbose: bool = False) -> None:
        self._every = every
        self._verbose = verbose
        self._failures: dict[str, list[FailureRecord]] = {}
        self._lock = threading.Lock()

    def on_cell(self, benchmark, outcome, done, total) -> None:
        with self._lock:
            if done % self._every == 0:
                print(f"  [{benchmark}] {done}/{total} outcomes", flush=True)

    def on_shard_done(
        self, benchmark, spec_id, shards_done, total_shards, elapsed, cells
    ) -> None:
        with self._lock:
            failures = self._failures.get(benchmark, [])
            if shards_done == total_shards and failures:
                print(
                    f"  [{benchmark}] {len(failures)} isolated failures: "
                    f"{summarize_failures(failures)}",
                    flush=True,
                )
            if self._verbose:
                print(
                    f"  [{benchmark}] shard {spec_id}: "
                    f"{cells} cells in {elapsed:.2f}s",
                    flush=True,
                )

    def on_failure(self, benchmark, failure) -> None:
        with self._lock:
            self._failures.setdefault(benchmark, []).append(failure)
