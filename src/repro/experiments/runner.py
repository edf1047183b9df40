"""The experiment engine: run every technique over a benchmark suite.

One pass produces a :class:`ResultMatrix` — per (specification, technique):
the REP outcome against the ground truth plus TM/SM similarity of whatever
text the technique produced.  Every table and figure of the paper is a
projection of this matrix, so it is computed once and cached as JSON.

A run is described by a :class:`RunConfig` and executed by a backend
from :mod:`repro.experiments.executor`: work is sharded by specification,
shards run serially in-process for ``jobs == 1`` and on a process pool of
``jobs`` workers otherwise, always in benchmark order, and each completed
shard is flushed to the result cache — a killed run resumes from its
completed shards.  Parallelism never changes the result: cells are seeded
per (spec, technique) via :func:`repro.repair.registry.cell_seed`, so
serial and parallel runs produce identical matrices, and the cache key
deliberately excludes ``jobs``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.analysis.canon import shared_verdicts
from repro.benchmarks.cache import cache_dir, load_benchmark
from repro.obs.export import write_trace
from repro.obs.trace import Span
from repro.benchmarks.faults import FaultySpec
from repro.chaos.plan import FaultPlan
from repro.experiments.executor import (
    ProcessExecutor,
    SerialExecutor,
    ShardTask,
)
from repro.experiments.progress import NULL_LISTENER, ProgressListener
from repro.metrics.bleu import token_match
from repro.metrics.rep import rep_outcome
from repro.metrics.syntax_match import syntax_match
from repro.repair import registry
from repro.repair.base import RepairTask
from repro.repair.registry import (
    MULTI_ROUND,
    SINGLE_ROUND,
    TRADITIONAL,
)
from repro.runtime.errors import CacheCorruptionError
from repro.runtime.guard import FailureRecord, summarize_failures
from repro.runtime.persist import atomic_write_json, load_json

MATRIX_SCHEMA = "repro-matrix/3"
"""Result-cache schema stamp; bump on any change to the outcome payload or
the cache-key recipe so old caches read as misses instead of crashing (or
silently colliding with) a run."""

ALL_TECHNIQUES = registry.all_techniques()
"""The default matrix columns, derived from the technique registry."""


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines one matrix run.

    Only ``benchmark``, ``scale``, ``seed``, and ``techniques`` affect the
    *result* (and hence the cache key); the remaining fields steer how the
    result is computed — parallelism, caching, failure policy, progress.
    """

    benchmark: str
    scale: float = 1.0
    seed: int = 0
    techniques: tuple[str, ...] | None = None
    """``None`` means every standard registry technique."""
    jobs: int = 1
    """``1`` runs shards serially in-process; more runs them on a process
    pool of that many workers."""
    use_cache: bool = True
    fail_fast: bool = False
    listener: ProgressListener | None = None
    """Progress callbacks; ``None`` is silent (the library default)."""
    trace: bool = False
    """Capture spans and metrics for every executed cell.  Never changes
    the computed matrix — only whether telemetry is collected and a trace
    file written."""
    trace_out: str | None = None
    """Trace file destination (implies ``trace``); default
    ``trace-<benchmark>-seed<seed>.jsonl`` in the working directory."""
    shard_timeout: float | None = None
    """Wall-clock seconds one shard (one spec's pending cells) may take.
    Overdue shards record a ``shard.timeout`` failure and ``"timeout"``
    outcomes for their pending cells; neither is cached (a timeout is an
    execution artifact, not a result), so a later run retries them."""
    chaos: FaultPlan | None = None
    """Deterministic fault-injection plan (:mod:`repro.chaos`), installed
    around every shard.  Folded into the cache key — injected faults
    change outcomes, and a chaos matrix must never collide with a clean
    one."""

    def __post_init__(self) -> None:
        if self.techniques is not None:
            object.__setattr__(self, "techniques", tuple(self.techniques))
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0, got {self.shard_timeout}"
            )

    def technique_list(self) -> list[str]:
        return list(self.techniques) if self.techniques else list(ALL_TECHNIQUES)

    @property
    def tracing(self) -> bool:
        return self.trace or self.trace_out is not None

    def trace_path(self) -> Path:
        if self.trace_out is not None:
            return Path(self.trace_out)
        return Path.cwd() / f"trace-{self.benchmark}-seed{self.seed}.jsonl"


@dataclass
class SpecOutcome:
    """One technique's result on one specification."""

    spec_id: str
    technique: str
    rep: int
    tm: float
    sm: float
    status: str
    elapsed: float
    error_code: str | None = None
    """Taxonomy code when ``status == "error"`` came from a crash the
    repair layer isolated.  Runtime-only: excluded from the matrix cache
    (schema unchanged), consumed by the service's circuit breakers."""


@dataclass
class ResultMatrix:
    """All outcomes for one benchmark run."""

    benchmark: str
    seed: int
    scale: float
    specs: list[FaultySpec] = field(default_factory=list)
    outcomes: dict[str, dict[str, SpecOutcome]] = field(default_factory=dict)
    """spec_id -> technique -> outcome"""
    failures: list[FailureRecord] = field(default_factory=list)
    """Crash-isolated cell failures; the corresponding outcomes carry
    ``status="crashed"`` and count as unrepaired."""
    telemetry: dict | None = None
    """Present only on traced runs: the merged metrics snapshot
    (``"metrics"``) and the trace file path (``"trace_path"``).  Never
    cached — cached cells produced no telemetry to begin with."""
    chaos_events: list[dict] = field(default_factory=list)
    """Every injected fault that fired during this run (chaos runs only):
    the audit trail the invariant checker cross-references against
    ``failures`` and ``outcomes``."""

    def repaired_ids(self, technique: str) -> set[str]:
        return {
            spec_id
            for spec_id, row in self.outcomes.items()
            if technique in row and row[technique].rep == 1
        }

    def rep_count(self, technique: str, domain: str | None = None) -> int:
        count = 0
        domains = {s.spec_id: s.domain for s in self.specs}
        for spec_id, row in self.outcomes.items():
            if domain is not None and domains.get(spec_id) != domain:
                continue
            if technique in row and row[technique].rep == 1:
                count += 1
        return count

    def similarity_series(self, technique: str, metric: str = "tm") -> list[float]:
        """Per-spec similarity values, ordered by spec_id."""
        values = []
        for spec in self.specs:
            outcome = self.outcomes.get(spec.spec_id, {}).get(technique)
            if outcome is None:
                continue
            values.append(outcome.tm if metric == "tm" else outcome.sm)
        return values

    def mean_similarity(self, technique: str, metric: str = "tm") -> float:
        series = self.similarity_series(technique, metric)
        return sum(series) / len(series) if series else 0.0

    def failure_summary(self) -> dict[str, int]:
        """Count of crash-isolated failures per error code."""
        return summarize_failures(self.failures)


def derive_trace_out(
    trace_out: str | None, trace: bool, benchmark: str, seed: int
) -> str | None:
    """Per-benchmark trace destination for multi-benchmark drivers.

    A single ``--trace-out`` cannot serve two matrices (the second would
    clobber the first), so the benchmark name is folded into the stem;
    with bare ``--trace`` the default ``trace-<benchmark>-seed<seed>``
    naming already keeps the files apart.
    """
    if trace_out is None:
        return f"trace-{benchmark}-seed{seed}.jsonl" if trace else None
    path = Path(trace_out)
    suffix = path.suffix or ".jsonl"
    return str(path.with_name(f"{path.stem}-{benchmark}{suffix}"))


def run_spec(
    spec: FaultySpec,
    technique: str,
    seed: int,
    truth_outcomes: list[bool] | None = None,
) -> SpecOutcome:
    """Run one technique on one faulty specification and score the result."""
    start = time.perf_counter()
    tool = registry.create(technique, spec, seed)
    task = RepairTask.from_source(spec.faulty_source)
    result = tool.repair(task)
    final_text = result.final_source(task)
    rep, tm, sm = _scores(final_text, spec.truth_source, truth_outcomes)
    return SpecOutcome(
        spec_id=spec.spec_id,
        technique=technique,
        rep=rep,
        tm=tm,
        sm=sm,
        status=result.status.value,
        elapsed=time.perf_counter() - start,
        error_code=result.error_code,
    )


def _scores(
    final_text: str, truth_text: str, truth_outcomes: list[bool] | None
) -> tuple[int, float, float]:
    """REP, TM and SM of one final text against the truth.

    Inside a :func:`~repro.analysis.canon.verdict_sharing` scope (one
    shard) they are computed once per exact final text: tools often hand
    back the same text, and the scores are pure functions of the two
    texts.  The key is the exact text, never its canonical form, so REP
    rests on the from-scratch analyzer alone."""
    cache = shared_verdicts()
    key = (
        "scores",
        final_text,
        truth_text,
        None if truth_outcomes is None else tuple(truth_outcomes),
    )
    if cache is not None and key in cache:
        obs.counter("shard.score_hits").inc()
        return cache[key]
    scores = (
        rep_outcome(final_text, truth_text, truth_outcomes).rep,
        token_match(final_text, truth_text),
        syntax_match(final_text, truth_text),
    )
    if cache is not None:
        cache[key] = scores
    return scores


def _crashed_outcome(spec: FaultySpec, technique: str) -> SpecOutcome:
    """The sentinel outcome for a crash-isolated cell: scored as a miss."""
    return SpecOutcome(
        spec_id=spec.spec_id,
        technique=technique,
        rep=0,
        tm=0.0,
        sm=0.0,
        status="crashed",
        elapsed=0.0,
    )


def _timeout_outcome(spec: FaultySpec, technique: str) -> SpecOutcome:
    """The sentinel for a cell abandoned by a shard deadline: a miss, like
    a crash, but distinguishable — and never cached, so a rerun without
    the deadline (or on a faster machine) recomputes it."""
    return SpecOutcome(
        spec_id=spec.spec_id,
        technique=technique,
        rep=0,
        tm=0.0,
        sm=0.0,
        status="timeout",
        elapsed=0.0,
    )


def run_matrix(config: RunConfig) -> ResultMatrix:
    """Run (or load from cache) the full technique × spec matrix.

    Takes a :class:`RunConfig` and nothing else — the legacy shape (a
    benchmark name plus loose keyword arguments) was removed after its
    deprecation cycle.

    Every (spec, technique) cell is crash-isolated: an exception in one
    cell is captured as a :class:`FailureRecord` plus a ``"crashed"``
    outcome, and the run continues.  Set ``fail_fast=True`` (the CI /
    debugging mode) to propagate the first failure instead.
    """
    if not isinstance(config, RunConfig):
        raise TypeError(
            "run_matrix expects a RunConfig; the legacy "
            "run_matrix(benchmark, ...) keyword shape was removed — "
            f"got {type(config).__name__}"
        )
    return _run(config)


def _run(config: RunConfig) -> ResultMatrix:
    listener = config.listener or NULL_LISTENER
    techniques = config.technique_list()
    unknown = [t for t in techniques if not registry.is_registered(t)]
    if unknown:
        raise ValueError(f"unknown technique(s): {', '.join(unknown)}")
    specs = load_benchmark(config.benchmark, seed=config.seed, scale=config.scale)
    path = cache_dir() / _matrix_key(
        config.benchmark,
        config.seed,
        config.scale,
        techniques,
        chaos_digest=config.chaos.digest() if config.chaos else None,
    )
    matrix = ResultMatrix(
        benchmark=config.benchmark,
        seed=config.seed,
        scale=config.scale,
        specs=specs,
    )
    if config.use_cache and path.exists():
        try:
            _load_outcomes(matrix, path)
        except CacheCorruptionError as error:
            print(
                f"warning: discarding unusable result cache: {error}",
                file=sys.stderr,
            )
            matrix.outcomes.clear()
            matrix.failures.clear()

    # Shard by specification: each shard carries only that spec's missing
    # techniques, so a resumed run re-executes nothing it already has.
    total = len(specs) * len(techniques)
    done = 0
    shards: list[ShardTask] = []
    tracing = config.tracing
    for spec in specs:
        row = matrix.outcomes.get(spec.spec_id, {})
        missing = tuple(t for t in techniques if t not in row)
        done += len(techniques) - len(missing)
        if missing:
            shards.append(
                ShardTask(
                    spec=spec,
                    techniques=missing,
                    seed=config.seed,
                    fail_fast=config.fail_fast,
                    trace=tracing,
                    shard_timeout=config.shard_timeout,
                    chaos=config.chaos,
                )
            )
    if not shards:
        return matrix

    # Run-level telemetry accumulators (only allocated when tracing):
    # worker shards return picklable span/metric payloads, merged here so
    # process-pool runs aggregate identically to serial ones.
    run_spans: list[Span] = []
    run_metrics = obs.MetricsRegistry() if tracing else None

    backend = (
        SerialExecutor() if config.jobs == 1 else ProcessExecutor(config.jobs)
    )
    shards_done = 0
    try:
        for result in backend.run(shards):
            row = matrix.outcomes.setdefault(result.spec_id, {})
            row.update(result.outcomes)
            matrix.failures.extend(result.failures)
            matrix.chaos_events.extend(result.chaos_events)
            for failure in result.failures:
                listener.on_failure(config.benchmark, failure)
            for outcome in result.outcomes.values():
                done += 1
                listener.on_cell(config.benchmark, outcome, done, total)
            shards_done += 1
            listener.on_shard_done(
                config.benchmark,
                result.spec_id,
                shards_done,
                len(shards),
                result.elapsed,
                len(result.outcomes),
            )
            if run_metrics is not None:
                run_spans.extend(
                    Span.from_json(payload) for payload in result.spans
                )
                run_metrics.merge(result.metrics)
            if config.use_cache:
                # Incremental durability: a killed run resumes from the
                # last flushed shard instead of losing everything.
                _save_outcomes(matrix, path)
    except KeyboardInterrupt:
        # Ctrl-C is a graceful stop, not a crash: flush everything already
        # computed (a shard merged above may not have reached its own
        # flush yet) so the next run resumes from here, say what survived,
        # and let the interrupt propagate to the caller's exit handling.
        if config.use_cache:
            _save_outcomes(matrix, path)
        cells = sum(len(row) for row in matrix.outcomes.values())
        print(
            f"\ninterrupted: {shards_done}/{len(shards)} shard(s) finished, "
            f"{cells} cell(s) "
            + (
                f"flushed to {path.name} — a rerun resumes from there"
                if config.use_cache
                else "computed but not cached (--no-cache run)"
            ),
            file=sys.stderr,
        )
        raise

    if run_metrics is not None:
        trace_path = config.trace_path()
        write_trace(
            trace_path,
            run_spans,
            run_metrics,
            meta={
                "benchmark": config.benchmark,
                "seed": config.seed,
                "scale": config.scale,
                "jobs": config.jobs,
            },
        )
        matrix.telemetry = {
            "metrics": run_metrics.snapshot(),
            "trace_path": str(trace_path),
        }
    return matrix


def _matrix_key(
    benchmark: str,
    seed: int,
    scale: float,
    techniques: Sequence[str],
    *,
    chaos_digest: str | None = None,
) -> str:
    # The key folds in the technique *set* (sorted: order cannot change
    # outcomes) so a subset run and a full run never collide on one file.
    # The worker count (jobs) is deliberately excluded: it must not
    # change the result.  A chaos plan changes outcomes by
    # design, so its digest gets its own key.
    payload = {"b": benchmark, "s": seed, "sc": scale, "t": sorted(techniques)}
    if chaos_digest is not None:
        payload["ch"] = chaos_digest
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:12]
    return f"matrix-{benchmark}-{seed}-{digest}.json"


def _save_outcomes(matrix: ResultMatrix, path) -> None:
    # Timeout cells (and their shard.timeout failure records) are
    # execution artifacts — a rerun on a faster machine, or without the
    # deadline, should recompute them — so they never enter the cache.
    payload = {
        "outcomes": {
            spec_id: {
                technique: {
                    "rep": o.rep,
                    "tm": o.tm,
                    "sm": o.sm,
                    "status": o.status,
                    "elapsed": o.elapsed,
                }
                for technique, o in row.items()
                if o.status != "timeout"
            }
            for spec_id, row in matrix.outcomes.items()
        },
        "failures": [
            record.to_json()
            for record in matrix.failures
            if record.code != "shard.timeout"
        ],
    }
    atomic_write_json(path, payload, schema=MATRIX_SCHEMA)


def _load_outcomes(matrix: ResultMatrix, path) -> None:
    """Populate ``matrix`` from a cache file.

    Raises :class:`CacheCorruptionError` for anything unusable — a
    truncated file, a pre-versioning cache, a record missing fields —
    so the caller regenerates instead of crashing (or worse, reporting
    on partial garbage).
    """
    payload = load_json(path, schema=MATRIX_SCHEMA)
    try:
        for spec_id, row in payload["outcomes"].items():
            matrix.outcomes[spec_id] = {
                technique: SpecOutcome(
                    spec_id=spec_id,
                    technique=technique,
                    rep=data["rep"],
                    tm=data["tm"],
                    sm=data["sm"],
                    status=data["status"],
                    elapsed=data["elapsed"],
                )
                for technique, data in row.items()
            }
        matrix.failures.extend(
            FailureRecord.from_json(record) for record in payload["failures"]
        )
    except (KeyError, TypeError, AttributeError) as error:
        raise CacheCorruptionError(
            f"malformed result record in {path.name}: {error!r}",
            context={"path": str(path)},
        ) from error
