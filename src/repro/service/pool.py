"""The warm worker pool: priority dispatch, health checks, replacement.

Workers are long-lived threads (warm: the benchmark corpus, technique
registry, and caches are already in memory) pulling jobs off a priority
queue.  Dispatch order is **priority, then longest-first, then FIFO** —
longest-processing-time-first, applied online: with a mixed queue the
expensive jobs start early so the pool's tail latency stays bounded.

Health: a worker that has been busy past its *allowance* (twice the job
deadline plus a grace second, mirroring the
:class:`~repro.experiments.executor.ProcessExecutor` watchdog) is
declared **wedged**.  Threads cannot be killed, so the wedged worker is
*abandoned* — its eventual result (if any) is discarded, a replacement
thread is spawned immediately so capacity never degrades, and the caller
is handed the wedged job to synthesize a timeout result for.  This is the
thread-level analogue of the process watchdog, which abandons a hung
shard the same way.

The pool is deliberately ignorant of the job payload: items are opaque,
execution is the injected ``runner`` callable, completion is the injected
``on_result`` callback (invoked on worker threads — the daemon marshals
back onto its event loop).
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class _Worker:
    """Bookkeeping for one pool thread."""

    name: str
    thread: threading.Thread | None = None
    item: Any = None
    busy_since: float | None = None
    abandoned: bool = False
    executed: int = 0


@dataclass(order=True)
class _Entry:
    """Heap entry: min-heap on (-priority, -cost, seq) = priority desc,
    cost desc (longest-first), submission order."""

    neg_priority: float
    neg_cost: float
    seq: int
    item: Any = field(compare=False)


class WorkerPool:
    """A fixed-size pool of warm worker threads with wedge detection."""

    def __init__(
        self,
        workers: int,
        runner: Callable[[Any], Any],
        on_result: Callable[[Any, Any, BaseException | None], None],
        deadline: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        name: str = "repro-service",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._runner = runner
        self._on_result = on_result
        self.deadline = deadline
        self._clock = clock
        self._name = name
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._heap: list[_Entry] = []
        self._seq = 0
        self._stopped = False
        self._paused = False
        self.executed = 0
        self.wedged = 0
        self.replaced = 0
        self._workers: list[_Worker] = []
        for index in range(workers):
            self._spawn(index)

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        worker = _Worker(name=f"{self._name}-w{index}")
        thread = threading.Thread(
            target=self._loop, args=(worker,), name=worker.name, daemon=True
        )
        worker.thread = thread
        self._workers.append(worker)
        thread.start()
        return worker

    def stop(self) -> None:
        """Ask idle workers to exit; never joins abandoned (hung) threads."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for worker in list(self._workers):
            thread = worker.thread
            if thread is not None and not worker.abandoned:
                thread.join(timeout=1.0)

    def pause(self) -> None:
        """Stop handing out queued jobs (running jobs finish normally).
        Deterministic-backpressure switch for tests and drills."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    # -- queue ----------------------------------------------------------------

    def submit(self, item: Any, priority: int = 0, cost: float = 0.0) -> None:
        with self._cond:
            if self._stopped:
                raise RuntimeError("pool is stopped")
            self._seq += 1
            heapq.heappush(
                self._heap,
                _Entry(
                    neg_priority=-float(priority),
                    neg_cost=-float(cost),
                    seq=self._seq,
                    item=item,
                ),
            )
            self._cond.notify()

    def queued(self) -> int:
        with self._lock:
            return len(self._heap)

    def running(self) -> int:
        with self._lock:
            return sum(
                1
                for w in self._workers
                if w.item is not None and not w.abandoned
            )

    def drain_pending(self) -> list[Any]:
        """Atomically remove and return every queued (not started) item —
        the daemon hands these back to the ledger at shutdown."""
        with self._cond:
            pending = [entry.item for entry in sorted(self._heap)]
            self._heap.clear()
            return pending

    # -- health ---------------------------------------------------------------

    def allowance(self) -> float | None:
        """How long a worker may be busy before it is declared wedged."""
        if self.deadline is None:
            return None
        return self.deadline * 2 + 1.0

    def reap_wedged(self) -> list[Any]:
        """Abandon overdue workers, spawn replacements, return their jobs.

        The caller owns the returned items: the pool will *not* invoke
        ``on_result`` for them even if the hung thread eventually returns.
        """
        allowance = self.allowance()
        if allowance is None:
            return []
        now = self._clock()
        wedged_items: list[Any] = []
        with self._cond:
            for worker in list(self._workers):
                if (
                    worker.abandoned
                    or worker.item is None
                    or worker.busy_since is None
                ):
                    continue
                if now - worker.busy_since < allowance:
                    continue
                worker.abandoned = True
                wedged_items.append(worker.item)
                self.wedged += 1
                self.replaced += 1
                self._workers.remove(worker)
                self._spawn(len(self._workers) + self.replaced)
        return wedged_items

    def health(self) -> list[dict]:
        now = self._clock()
        with self._lock:
            return [
                {
                    "name": worker.name,
                    "busy": worker.item is not None,
                    "busy_seconds": (
                        round(now - worker.busy_since, 3)
                        if worker.busy_since is not None
                        else 0.0
                    ),
                    "executed": worker.executed,
                    "abandoned": worker.abandoned,
                }
                for worker in self._workers
            ]

    # -- the worker loop ------------------------------------------------------

    def _take(self) -> Any | None:
        with self._cond:
            while True:
                if self._stopped:
                    return None
                if self._heap and not self._paused:
                    return heapq.heappop(self._heap).item
                self._cond.wait(timeout=0.1)
                if not self._heap or self._paused:
                    # Re-check stop/pause on every wakeup instead of
                    # blocking forever: a stopped pool must wind down even
                    # if no job ever arrives.
                    if self._stopped:
                        return None

    def _loop(self, worker: _Worker) -> None:
        while True:
            item = self._take()
            if item is None:
                return
            with self._lock:
                if worker.abandoned:  # pragma: no cover - defensive
                    return
                worker.item = item
                worker.busy_since = self._clock()
            error: BaseException | None = None
            result = None
            try:
                result = self._runner(item)
            except BaseException as caught:  # noqa: BLE001 - isolation boundary
                error = caught
            with self._lock:
                abandoned = worker.abandoned
                worker.item = None
                worker.busy_since = None
                if not abandoned:
                    worker.executed += 1
                    self.executed += 1
            if abandoned:
                # The watchdog already synthesized this job's result and a
                # replacement worker took this one's place: the late result
                # is discarded and the thread retires.
                return
            self._on_result(item, result, error)
