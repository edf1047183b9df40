"""The three workloads, run inside one measuring process.

The launcher (``run.py``) starts this code in a fresh interpreter with a
pinned ``PYTHONHASHSEED``, ``PYTHONPATH`` pointing at the checkout's
``src`` and ``REPRO_CACHE_DIR`` pointing at a private, empty directory, so
every run builds the suite from source and never reads a committed cache.

Each workload times one pass over a fixed list of cells or jobs made from
the seed.  The list does not depend on how fast the program is, so two
commits always time the same work.  The suite is always the canonical
ARepair suite (generated at seed 0, as in every table of the study).  On
``oracle-arepair`` and the service's store fill, the workload seed is the
run seed of the cells, from which every tool draws its random choices; on
``llm-arepair`` it shuffles the order of cells run at the suite seed; on
``service-replay`` it also picks the replay sequence.

- ``oracle-arepair``: ARepair, ICEBAR, BeAFix and ATR over the ARepair
  suite, one shard per spec holding all four tools (verdicts are shared
  between the tools of a shard exactly as in ``run_matrix``).  Exercises
  the incremental oracle session, canonical dedup, static pruning and the
  AUnit evaluator; the LLM layer does no work here.
- ``llm-arepair``: the eight Single-Round/Multi-Round settings over the
  same suite, two cells per spec, so every setting covers nine or ten
  specs, in an order shuffled by the seed.  Every proposal goes through a
  from-scratch ``Analyzer`` and a one-shot ``SatSolver``; it is the
  no-change control for the session, canon and prune layers.
- ``service-replay``: a lone ``repro serve`` process.  Set-up fills its
  result store by submitting each spec once (the write path, one store
  flush per job); the timed pass is a closed loop over one client
  connection resubmitting a seeded sequence of those jobs, all answered
  from the store.  Measures framing, admission, store lookup and publish.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import calibrate
import layers

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
PINNED_SEEDS = (0, 97)
"""Seeds whose every cell outcome is pinned in ``expected/``.  Seed 97 is
held out: its timings were not looked at while the benchmark was tuned, so
a later claim can be re-checked on it."""

REFERENCE_SECONDS = 30
"""``--seconds`` value at which the batch workloads cover the whole suite.
Smaller values take a proportional prefix of the work list (for smoke
runs); the list is fixed by ``--seconds`` and the seed, never by a clock."""

SERVICE_JOBS_PER_SECOND = 700
"""Replay jobs per ``--seconds``; the timed replay itself is shorter than
the batch passes because set-up (three daemon starts and store fills) is
the costly part of that workload, and a whole run must stay near the
batch workloads' length."""

SERVICE_BLOCK = 1000
"""Replay jobs per piece of the pass, with an echo reference reading
(``calibrate.EchoReference``) between two pieces."""

SERVICE_TAIL_BLOCK = 100
"""Replay jobs per tail block.  The service's tail is taken per block (p90
of 100 jobs, the highest percentile with ten jobs beyond it) and reported
as the median over blocks: the 10th-slowest of tens of thousands of
sub-millisecond jobs would be set by the host's rare stalls, not by the
service, and so, less often, would the p99 of 1000."""

SERVICE_TECHNIQUE = "ATR"
SOCKET = "repro.sock"
"""Relative to the private working directory, which keeps the unix socket
path short whatever the checkout path."""

WORKLOAD_NAMES = ("oracle-arepair", "llm-arepair", "service-replay")
TRADITIONAL = ("ARepair", "ICEBAR", "BeAFix", "ATR")
SUITE_SEED = 0
"""The suite's generation seed.  On ``oracle-arepair``, regenerating the
suite per workload seed made a pass's cost vary by an IQR of 0.12 of its
median across ten seeds, half the widest bound; with the suite fixed it
varies by 0.06 (both measured with the seeds' shards interleaved, so host
drift cancels)."""


def llm_settings() -> tuple[str, ...]:
    from repro.repair.registry import MULTI_ROUND, SINGLE_ROUND

    return tuple(SINGLE_ROUND + MULTI_ROUND)


# -- statistics -----------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile (to 0.1) with at least ten samples beyond it,
    and its nearest-rank value; the median when there are fewer than 20."""
    n = len(values)
    if n < 20:
        return 50.0, statistics.median(values)
    pct = math.floor(1000 * (1 - 10 / n)) / 10
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1]


def block_tail(values: list[float]) -> tuple[float, float]:
    """The service's tail: ``tail_percentile`` of each block of
    ``SERVICE_TAIL_BLOCK`` jobs, and the median over the blocks."""
    blocks = [
        tail_percentile(values[i : i + SERVICE_TAIL_BLOCK])
        for i in range(0, len(values), SERVICE_TAIL_BLOCK)
    ]
    return blocks[0][0], statistics.median(value for _, value in blocks)


def timings(latencies: list[float], wall: float, tail=tail_percentile) -> dict:
    """Throughput, p50 and tail of one pass, with the tail's percentile."""
    pct, tail_value = tail(latencies)
    return {
        "throughput_per_s": len(latencies) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_value,
        "tail_percentile": pct,
    }


def scaled_timings(
    latencies: list[float], wall: float, slowdown: float, factors: list[float], tail
) -> dict:
    """``timings`` at the reference host speed: each latency divided by the
    slowdown of the piece it ran in, the pass's wall time by the pass's."""
    return timings(
        [value / factor for value, factor in zip(latencies, factors)],
        wall / slowdown,
        tail,
    )


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the correctness gate ---------------------------------------------------------


def expected_path(seed: int) -> Path:
    return EXPECTED_DIR / f"arepair-seed{seed}.json"


def load_expected(seed: int) -> dict | None:
    """Pinned ``(rep, status, tm, sm)`` per ``spec|technique`` for a pinned
    seed, else ``None`` (the gate then only rejects crashes and timeouts)."""
    if seed not in PINNED_SEEDS:
        return None
    with open(expected_path(seed), encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def cell_record(outcome) -> list:
    return [outcome.rep, outcome.status, round(outcome.tm, 9), round(outcome.sm, 9)]


def payload_record(cell: dict) -> list:
    return [cell["rep"], cell["status"], round(cell["tm"], 9), round(cell["sm"], 9)]


def cell_problem(expected: dict | None, spec_id: str, technique: str, got) -> str | None:
    """Why one cell fails the gate, or ``None``.  ``got`` is a cell record."""
    if got is None:
        return "missing"
    if got[1] in ("crashed", "timeout"):
        return got[1]
    if expected is None:
        return None
    want = expected.get(f"{spec_id}|{technique}")
    if want is None:
        return "not pinned"
    if got != want:
        return f"expected {want}, got {got}"
    return None


class Gate:
    """Counts attempted and failed operations and keeps the first reasons."""

    def __init__(self, seed: int) -> None:
        self.expected = load_expected(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def mode(self) -> str:
        if self.expected is None:
            return "fallback: no cell crashed or timed out (seed not pinned)"
        return "pinned: every cell equals its pinned (rep, status, tm, sm)"

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {problem}")

    def check_shards(self, tasks, results) -> None:
        # A crash or deadline inside a shard always leaves a "crashed" or
        # "timeout" outcome behind, so the outcomes alone decide.
        for task, result in zip(tasks, results):
            for technique in task.techniques:
                outcome = result.outcomes.get(technique)
                got = None if outcome is None else cell_record(outcome)
                problem = cell_problem(
                    self.expected, task.spec.spec_id, technique, got
                )
                self.record(f"{task.spec.spec_id}|{technique}", problem)


# -- batch workloads ------------------------------------------------------------


def shard_tasks(name: str, specs: list, seed: int) -> list:
    """The shards a workload runs over ``specs``, in order.

    ``llm-arepair`` gives the spec at position ``i`` settings ``2i`` and
    ``2i + 1`` (mod 8), so each setting covers nine or ten specs.  Its
    cells run at the suite seed and ``seed`` only shuffles their order:
    the simulated LLM draws its samples from the run seed, and one cell's
    cost moves up to tenfold with them, so a seeded run seed would make
    the pass's cost a draw (see ``README.md``).  ``service-replay`` names
    the shards its daemon runs for the store fill: one ATR cell per spec.
    """
    from repro.experiments.executor import ShardTask

    if name == "oracle-arepair":
        columns = [TRADITIONAL] * len(specs)
    elif name == "llm-arepair":
        settings = llm_settings()
        columns = [
            tuple(settings[(2 * index + k) % len(settings)] for k in (0, 1))
            for index in range(len(specs))
        ]
    else:
        columns = [(SERVICE_TECHNIQUE,)] * len(specs)
    run_seed = SUITE_SEED if name == "llm-arepair" else seed
    tasks = [
        ShardTask(spec=spec, techniques=techniques, seed=run_seed)
        for spec, techniques in zip(specs, columns)
    ]
    if name == "llm-arepair":
        random.Random(seed).shuffle(tasks)
    return tasks


class BatchWorkload:
    """A serial, in-process pass over per-spec shards."""

    def host_speed(self) -> calibrate.HostSpeed:
        """Two CPU reference chunks (``calibrate.py``) between two shards."""
        return calibrate.HostSpeed(2)

    def __init__(self, name: str, seed: int, seconds: int) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tasks: list = []

    def setup(self, on_warm=None) -> None:
        from repro.benchmarks import cache
        from repro.experiments import executor

        specs = cache.load_benchmark("arepair", seed=SUITE_SEED)
        count = min(
            len(specs),
            max(1, round(len(specs) * self.seconds / REFERENCE_SECONDS)),
        )
        self.tasks = shard_tasks(self.name, specs[:count], self.seed)
        if on_warm is not None:
            on_warm()
        # Untimed warm-up: imports, lazy tables and allocator growth.  It
        # is the first spec's shard at the suite seed, so its cost (part of
        # set-up) does not change with the workload seed.
        executor.execute_shard(shard_tasks(self.name, specs[:1], SUITE_SEED)[0])

    def parts(self) -> list[list]:
        """The pass cut into pieces for interleaving: one shard each."""
        return [[task] for task in self.tasks]

    def run_pass(self, traced: bool, part: list | None = None) -> dict:
        """Time the shards of ``part`` (default: every shard), serially."""
        from repro.experiments import executor

        if part is None:
            part = self.tasks
        tasks = [replace(task, trace=traced) for task in part]
        results = []
        gc.collect()
        started = time.perf_counter()
        for task in tasks:
            results.append(executor.execute_shard(task))
        wall = time.perf_counter() - started
        return {"wall": wall, "tasks": tasks, "results": results}

    def teardown(self) -> None:
        pass

    def check_setup(self, gate: Gate) -> None:
        pass

    def check_run(self, run: dict, gate: Gate) -> dict[str, float]:
        """Gate every cell of ``run``; returns the work counts that must
        repeat exactly between two traced passes."""
        gate.check_shards(run["tasks"], run["results"])
        totals = self.counters(run)
        counts = {name: totals.get(name, 0) for name in layers.DETERMINISTIC_COUNTERS}
        counts["repair.oracle_checks"] = (
            counts["repair.oracle_calls"] - counts["analysis.dedup_hits"]
        )
        return counts

    def counters(self, run: dict) -> dict[str, float]:
        return layers.counter_totals([result.metrics for result in run["results"]])

    def add_daemon_metrics(
        self, metrics: dict, run: dict, counts: dict, setup_end: float
    ) -> None:
        pass

    tail = staticmethod(tail_percentile)

    def latencies_ms(self, run: dict) -> list[float]:
        return [
            outcome.elapsed * 1000.0
            for result in run["results"]
            for outcome in result.outcomes.values()
        ]

    def gate(self, run: dict, gate: Gate) -> dict:
        self.check_run(run, gate)
        return {"cells": len(self.latencies_ms(run)), "shards": len(run["tasks"])}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- the service workload ---------------------------------------------------------


class ServiceReplay:
    """A ``repro serve`` daemon, filled once, then replayed from its store."""

    def __init__(self, seed: int, seconds: int, traced_daemon: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced_daemon = traced_daemon
        self.daemon: subprocess.Popen | None = None
        self.echo: calibrate.EchoReference | None = None
        self.payloads: dict[str, dict] = {}
        self.jobs: list[str] = []
        self.daemon_rss_mb = 0.0
        self.fill_problems: list[tuple[str, str | None]] = []

    def _serve_argv(self) -> list[str]:
        args = [
            "serve",
            "--socket",
            SOCKET,
            "--seed",
            str(SUITE_SEED),
            # Every replayed job must be admitted: one tenant submits
            # thousands of jobs a second, far beyond the default bucket.
            # The queue needs no raise: jobs arrive one per connection and
            # store hits never enter it.
            "--bucket-capacity",
            "1000000000",
            "--bucket-refill",
            "1000000000",
        ]
        if self.traced_daemon:
            return [sys.executable, str(HERE / "traced_serve.py"), "daemon-events.json", *args]
        return [sys.executable, "-m", "repro", *args]

    def _job(self, spec_id: str):
        from repro.service.protocol import JobSpec

        return JobSpec(
            benchmark="arepair",
            spec_id=spec_id,
            techniques=(SERVICE_TECHNIQUE,),
            seed=self.seed,
        )

    def setup(self, on_warm=None) -> None:
        from repro.benchmarks import cache
        from repro.service.client import ServiceClient
        from repro.service.protocol import ServiceError

        with open("daemon.log", "wb") as log:
            self.daemon = subprocess.Popen(
                self._serve_argv(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
            )
        probe = ServiceClient(SOCKET, timeout=60.0, reconnect_attempts=1)
        deadline = time.monotonic() + 120.0
        while True:
            if self.daemon.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.daemon.returncode}: "
                    + Path("daemon.log").read_text(errors="replace")[-2000:]
                )
            try:
                probe.ping()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
        client = ServiceClient(SOCKET, timeout=60.0)
        # The daemon built the suite into the private cache before it
        # started listening; this read only learns the spec ids.
        spec_ids = [
            spec.spec_id for spec in cache.load_benchmark("arepair", seed=SUITE_SEED)
        ]
        for spec_id in spec_ids:
            outcome = client.submit(self._job(spec_id))
            cell = outcome.outcomes.get(SERVICE_TECHNIQUE) if outcome.accepted else None
            self.payloads[spec_id] = cell
            problem = None
            if not outcome.accepted:
                problem = "rejected"
            elif outcome.state != "done":
                problem = f"state {outcome.state}: {outcome.error}"
            self.fill_problems.append((spec_id, problem))
        rng = random.Random(self.seed)
        count = max(1, SERVICE_JOBS_PER_SECOND * self.seconds)
        self.jobs = [rng.choice(spec_ids) for _ in range(count)]
        if on_warm is not None:
            on_warm()
        for spec_id in spec_ids:
            client.submit(self._job(spec_id))

    def host_speed(self) -> calibrate.HostSpeed:
        """Echo round trips between two blocks of a pass.  The echo server
        shares the daemon's CPU; it is stopped by :meth:`teardown`."""
        self.echo = calibrate.EchoReference()
        return calibrate.HostSpeed(
            1, probe=self.echo.chunk, reference=calibrate.REFERENCE_ROUND_TRIP_S
        )

    def parts(self) -> list[range]:
        """The pass cut into blocks of ``SERVICE_BLOCK`` jobs."""
        step = SERVICE_BLOCK
        return [range(i, min(i + step, len(self.jobs))) for i in range(0, len(self.jobs), step)]

    def run_pass(self, traced: bool = False, part: range | None = None) -> dict:
        """Replay the jobs of ``part`` (default: all) over one connection,
        each job sent when the last one finished."""
        from repro.service.client import ServiceClient

        if part is None:
            part = range(len(self.jobs))
        spec_ids = [self.jobs[i] for i in part]
        jobs = [self._job(spec_id) for spec_id in spec_ids]
        latencies: list[float] = []
        answers: list = []
        errors: list[str | None] = []
        client = ServiceClient(SOCKET, timeout=60.0)
        gc.collect()
        started = time.perf_counter()
        for job in jobs:
            sent = time.perf_counter()
            try:
                answers.append(client.submit(job))
                errors.append(None)
            except Exception as error:  # counted as a failed job
                answers.append(None)
                errors.append(f"{type(error).__name__}: {error}")
            latencies.append(time.perf_counter() - sent)
        wall = time.perf_counter() - started
        return {
            "wall": wall,
            "spec_ids": spec_ids,
            "latencies": latencies,
            "answers": answers,
            "errors": errors,
        }

    def teardown(self) -> None:
        if self.echo is not None:
            self.echo.close()
            self.echo = None
        if self.daemon is None:
            return
        if self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        self.daemon_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
        self.daemon = None

    def check_setup(self, gate: Gate) -> None:
        """Gate each store-filling job against its pinned cell."""
        for spec_id, problem in self.fill_problems:
            cell = self.payloads.get(spec_id)
            if problem is None:
                problem = cell_problem(
                    gate.expected,
                    spec_id,
                    SERVICE_TECHNIQUE,
                    None if cell is None else payload_record(cell),
                )
            gate.record(f"fill {spec_id}", problem)

    def check_run(self, run: dict, gate: Gate) -> dict:
        """Gate every replayed answer against the payload the fill stored;
        returns the replay's counts."""
        hits = rejected = 0
        for spec_id, answer, error in zip(run["spec_ids"], run["answers"], run["errors"]):
            problem = error
            if problem is None:
                if answer.rejected:
                    rejected += 1
                    problem = "rejected"
                elif answer.state != "done":
                    problem = f"state {answer.state}"
                elif answer.outcomes.get(SERVICE_TECHNIQUE) != self.payloads.get(spec_id):
                    problem = "payload differs from the stored one"
                elif not answer.from_store:
                    problem = "not served from the store"
            if answer is not None and answer.accepted and answer.from_store:
                hits += 1
            gate.record(f"replay {spec_id}", problem)
        return {"jobs": len(run["spec_ids"]), "store_hits": hits, "rejected": rejected}

    def counters(self, run: dict) -> dict[str, float]:
        return {}

    def add_daemon_metrics(
        self, metrics: dict, run: dict, counts: dict, setup_end: float
    ) -> None:
        """Fold in what the traced daemon recorded (``traced_serve.py``):
        its set-up share of suite loading and persistence, and its time in
        ``ReproService.submit`` for each job of ``run``."""
        events = json.loads(Path("daemon-events.json").read_text(encoding="utf-8"))
        for event in events:
            took = event["end"] - event["start"]
            if event["end"] > setup_end:
                continue
            if event["layer"] == "benchmarks.generate":
                metrics["benchmarks.generate_s"] += took
            elif event["layer"] == "runtime.persist":
                metrics["runtime.persist.self_s"] += took
                if "bytes" in event:
                    metrics["runtime.persist.writes"] += 1
                    metrics["runtime.persist.bytes"] += event["bytes"]
        server = {
            event["job"]: event["end"] - event["start"]
            for event in events
            if event["layer"] == "service.server" and "job" in event
        }
        served, overheads = [], []
        for answer, latency in zip(run["answers"], run["latencies"]):
            took = server.get(getattr(answer, "job_id", None))
            if took is not None:
                served.append(took)
                overheads.append(latency - took)
        if served:
            metrics["service.server_ms"] = statistics.median(served) * 1000.0
            metrics["service.client_overhead_ms"] = statistics.median(overheads) * 1000.0
        metrics["service.store_hit_ratio"] = counts["store_hits"] / max(1, counts["jobs"])
        metrics["service.rejected"] = counts["rejected"]

    tail = staticmethod(block_tail)

    def latencies_ms(self, run: dict) -> list[float]:
        return [value * 1000.0 for value in run["latencies"]]

    def gate(self, run: dict, gate: Gate) -> dict:
        self.check_setup(gate)
        counts = self.check_run(run, gate)
        return {"clients": 1, "tail_block_samples": SERVICE_TAIL_BLOCK, **counts}

    def peak_rss_mb(self) -> float:
        return self.daemon_rss_mb


def make_workload(name: str, seed: int, seconds: int, traced: bool = False):
    if name == "service-replay":
        return ServiceReplay(seed, seconds, traced_daemon=traced)
    return BatchWorkload(name, seed, seconds)
