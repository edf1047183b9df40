"""The chaos invariant checker behind ``repro chaos``.

Each *drill* turns one resilience contract from the runtime and
experiment layers into an executable assertion, under deterministic
fault injection:

- **matrix-equivalence** — with faults firing in the solver, analyzer,
  repair tools, and LLM transport, serial and process-pool runs of the
  same :class:`~repro.experiments.runner.RunConfig` produce
  identical matrices and identical fault schedules, and every injected
  ``repair.crash`` surfaces as exactly the right
  :class:`~repro.runtime.guard.FailureRecord`;
- **persist-corruption** — no cache file damaged by ``persist.*`` faults
  ever reads back as valid: the tolerant readers raise
  :class:`~repro.runtime.errors.CacheCorruptionError`, never return
  garbage;
- **resume** — a run killed mid-flight resumes from its flushed shards:
  nothing completed is recomputed, and the resumed matrix equals a clean
  one;
- **llm-retry** — transient LLM faults bounded under the retry budget are
  fully absorbed: the matrix is bit-identical to a fault-free run;
- **shard-timeout** — a deliberately slow shard records a
  ``shard.timeout`` failure while every other cell still completes, both
  serially and on the process pool.

Drills run inside a temporary ``REPRO_CACHE_DIR`` so they never touch
(or trust) the user's caches.  The report is plain JSON written with
sorted keys and **no** timestamps, durations, or paths — two runs with
the same seed must produce byte-identical reports, which is itself one
of the determinism guarantees CI pins.  The service and cluster suites
(:mod:`repro.service.drill`) share this module's site check, report
assembly and renderer: each is a :class:`Suite` plus a list of drills.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.chaos.inject import install
from repro.chaos.plan import SITES, FaultPlan, SiteConfig
from repro.runtime.errors import CacheCorruptionError

CHAOS_SCHEMA = "repro-chaos/1"
"""Stamped into every chaos report; bump on any shape change."""

EQUIVALENCE_SITES: dict[str, SiteConfig] = {
    "sat.budget": SiteConfig(probability=0.02, max_fires=2),
    "sat.flip": SiteConfig(probability=0.02, max_fires=2),
    "analyzer.explode": SiteConfig(probability=0.01, max_fires=1),
    "repair.crash": SiteConfig(probability=0.2, max_fires=3),
    "llm.garbage": SiteConfig(probability=0.15, max_fires=2),
    "llm.truncate": SiteConfig(probability=0.15, max_fires=2),
}
"""Per-site tuning for the equivalence drill: frequent enough that every
selected site fires somewhere in the matrix, bounded so the run still
exercises plenty of healthy cells."""

EQUIVALENCE_TECHNIQUES = (
    "ATR",
    "BeAFix",
    "Single-Round_Pass",
    "Multi-Round_Generic",
)
"""Two traditional and two LLM techniques: every instrumented layer
(solver, analyzer, repair loop, LLM transport) sits on some cell's path."""

_PERSIST_SITES = ("persist.corrupt", "persist.truncate")


@dataclass
class DrillResult:
    """One drill's verdict: its violations (empty = contract held)."""

    name: str
    violations: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "skipped": self.skipped,
            "violations": list(self.violations),
            "detail": dict(self.detail),
        }


@contextmanager
def _temp_cache() -> Iterator[Path]:
    """An isolated cache universe for one drill (or the whole run).

    ``REPRO_CACHE_DIR`` is read per call by :func:`repro.benchmarks.cache
    .cache_dir`, and the ``fork`` process backend inherits the
    environment, so pointing it at a temp dir isolates every layer —
    benchmark caches, result matrices — in serial and pooled runs alike.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            yield Path(tmp)
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


def outcome_row(row: dict) -> dict:
    """The determinism-relevant projection of one spec's outcomes
    (technique → ``SpecOutcome``): everything except wall-clock fields,
    sorted for stable comparison and JSON emission."""
    return {
        technique: {
            "rep": outcome.rep,
            "tm": round(outcome.tm, 9),
            "sm": round(outcome.sm, 9),
            "status": outcome.status,
        }
        for technique, outcome in sorted(row.items())
    }


def matrix_payload(matrix) -> dict:
    """:func:`outcome_row` of every spec in a matrix, sorted by spec."""
    return {
        spec_id: outcome_row(row)
        for spec_id, row in sorted(matrix.outcomes.items())
    }


def _events_by_site(events: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event["site"]] = counts.get(event["site"], 0) + 1
    return dict(sorted(counts.items()))


# -- drills -------------------------------------------------------------------


def equivalence_drill(
    seed: int, requested: set[str], jobs: int, scale: float
) -> DrillResult:
    """Serial ≡ process under injected faults, crashes audited."""
    from repro.experiments.runner import RunConfig, run_matrix
    from repro.runtime.guard import summarize_failures

    drill = DrillResult(name="matrix-equivalence")
    active = sorted(requested & set(EQUIVALENCE_SITES))
    if not active:
        drill.skipped = True
        return drill
    plan = FaultPlan(
        seed=seed, sites={site: EQUIVALENCE_SITES[site] for site in active}
    )
    runs = {}
    for label, n in (("serial", 1), ("process", jobs)):
        with _temp_cache():
            runs[label] = run_matrix(
                RunConfig(
                    benchmark="arepair",
                    scale=scale,
                    seed=seed,
                    techniques=EQUIVALENCE_TECHNIQUES,
                    jobs=n,
                    use_cache=False,
                    chaos=plan,
                )
            )
    base = matrix_payload(runs["serial"])
    base_events = runs["serial"].chaos_events
    if matrix_payload(runs["process"]) != base:
        drill.violations.append(
            "process matrix diverges from serial under the same plan"
        )
    if runs["process"].chaos_events != base_events:
        drill.violations.append("process fault schedule diverges from serial")

    # Crash audit: every injected repair.crash must have escaped the tool,
    # been captured by the engine, and classified with the exact taxonomy
    # code the plan chose.
    failures = {
        record.where: record.code for record in runs["serial"].failures
    }
    crash_events = [e for e in base_events if e["site"] == "repair.crash"]
    for event in crash_events:
        where = f"{event['info'].get('spec')}:{event['info'].get('technique')}"
        expected = event["info"].get("code")
        found = failures.get(where)
        if found is None:
            drill.violations.append(
                f"injected crash at {where} produced no failure record"
            )
        elif found != expected:
            drill.violations.append(
                f"crash at {where}: expected code {expected}, recorded {found}"
            )
    fired = {e["site"] for e in base_events}
    for site in active:
        if site not in fired:
            drill.violations.append(
                f"site {site} never fired — the drill proved nothing about it"
            )
    drill.detail = {
        "sites": active,
        "events_by_site": _events_by_site(base_events),
        "failures_by_code": summarize_failures(runs["serial"].failures),
        "cells": sum(len(row) for row in base.values()),
        "payload": base,
    }
    return drill


def persist_drill(seed: int, requested: set[str]) -> DrillResult:
    """No corrupted cache file ever parses as valid."""
    from repro.runtime.persist import (
        atomic_write_json,
        atomic_write_jsonl,
        load_json,
        load_jsonl,
    )

    drill = DrillResult(name="persist-corruption")
    active = sorted(requested & set(_PERSIST_SITES))
    if not active:
        drill.skipped = True
        return drill
    writes = 0
    with _temp_cache() as tmp:
        for site in active:
            plan = FaultPlan(seed=seed, sites={site: SiteConfig()})
            with install(plan):
                for index in range(4):
                    path = tmp / f"{site}-{index}.json"
                    atomic_write_json(
                        path,
                        {"index": index, "rows": list(range(12))},
                        schema="chaos-drill/1",
                    )
                    writes += 1
                    try:
                        load_json(path, schema="chaos-drill/1")
                        drill.violations.append(
                            f"{site}: damaged JSON file #{index} read back "
                            "as valid"
                        )
                    except CacheCorruptionError:
                        pass
                    lines = tmp / f"{site}-{index}.jsonl"
                    atomic_write_jsonl(
                        lines,
                        [{"index": index, "row": row} for row in range(6)],
                        schema="chaos-drill/1",
                    )
                    writes += 1
                    try:
                        load_jsonl(lines, schema="chaos-drill/1")
                        drill.violations.append(
                            f"{site}: damaged JSONL file #{index} read back "
                            "as valid"
                        )
                    except CacheCorruptionError:
                        pass
    drill.detail = {"sites": active, "writes": writes}
    return drill


class _Interrupt(Exception):
    """The drill's stand-in for SIGKILL: aborts the run mid-loop."""


class _InterruptingListener:
    """Raises out of the engine after ``after`` completed shards."""

    def __init__(self, after: int) -> None:
        self.after = after

    def on_cell(self, benchmark, outcome, done, total) -> None:
        pass

    def on_failure(self, benchmark, failure) -> None:
        pass

    def on_metrics(self, benchmark, summary) -> None:
        pass

    def on_shard_done(self, benchmark, spec_id, shards_done, total) -> None:
        if shards_done >= self.after:
            raise _Interrupt()


def resume_drill(seed: int, scale: float) -> DrillResult:
    """A killed run resumes from its flushed shards, recomputing nothing
    already completed, and converges to the clean result."""
    from repro.experiments import runner
    from repro.experiments.runner import RunConfig, run_matrix

    drill = DrillResult(name="resume")
    techniques = ("ATR",)

    def config(listener=None) -> RunConfig:
        return RunConfig(
            benchmark="arepair",
            scale=scale,
            seed=seed,
            techniques=techniques,
            listener=listener,
        )

    with _temp_cache():
        clean = matrix_payload(run_matrix(config()))
    total_shards = len(clean)
    kill_after = max(2, total_shards // 3)
    with _temp_cache():
        try:
            run_matrix(config(listener=_InterruptingListener(kill_after)))
            drill.violations.append(
                "interrupting listener failed to abort the run"
            )
        except _Interrupt:
            pass
        # The engine flushes *after* the listener callback, so the shard
        # that raised was not flushed: exactly kill_after - 1 shards
        # survive the kill, and the resume must recompute all the rest.
        recomputed: list[str] = []
        original = runner.run_spec

        def counting(spec, technique, seed, truth_outcomes=None):
            recomputed.append(spec.spec_id)
            return original(spec, technique, seed, truth_outcomes)

        runner.run_spec = counting
        try:
            resumed = run_matrix(config())
        finally:
            runner.run_spec = original
    expected = total_shards - (kill_after - 1)
    if len(recomputed) != expected:
        drill.violations.append(
            f"resume recomputed {len(recomputed)} shards, expected "
            f"{expected} (of {total_shards}; {kill_after - 1} were flushed)"
        )
    if matrix_payload(resumed) != clean:
        drill.violations.append("resumed matrix diverges from the clean run")
    drill.detail = {
        "shards": total_shards,
        "flushed_before_kill": kill_after - 1,
        "recomputed": expected,
    }
    return drill


def retry_drill(seed: int, requested: set[str], scale: float) -> DrillResult:
    """Bounded transient LLM faults are absorbed without a trace in the
    results: the retry layer makes the matrix bit-identical to a clean run."""
    from repro.experiments.runner import RunConfig, run_matrix

    drill = DrillResult(name="llm-retry")
    if "llm.transient" not in requested:
        drill.skipped = True
        return drill
    # max_fires=2 stays under the default RetryPolicy's 3 attempts, so
    # every shard's first completion succeeds on its final attempt.
    plan = FaultPlan(
        seed=seed,
        sites={"llm.transient": SiteConfig(probability=1.0, max_fires=2)},
    )
    techniques = ("Single-Round_Pass",)

    def run(chaos):
        return run_matrix(
            RunConfig(
                benchmark="arepair",
                scale=scale,
                seed=seed,
                techniques=techniques,
                use_cache=False,
                chaos=chaos,
            )
        )

    with _temp_cache():
        clean = matrix_payload(run(None))
    with _temp_cache():
        chaotic = run(plan)
    if not chaotic.chaos_events:
        drill.violations.append("no transient fault ever fired")
    stray = {e["site"] for e in chaotic.chaos_events} - {"llm.transient"}
    if stray:
        drill.violations.append(f"unexpected sites fired: {sorted(stray)}")
    if matrix_payload(chaotic) != clean:
        drill.violations.append(
            "matrix under retried transient faults diverges from clean run"
        )
    drill.detail = {
        "events": len(chaotic.chaos_events),
        "shards": len(clean),
    }
    return drill


class _SlowTool:
    """A technique that oversleeps its shard's deadline on one target spec."""

    name = "ChaosSlow"

    def __init__(self, target: bool, nap: float) -> None:
        self._target = target
        self._nap = nap

    def repair(self, task):
        from repro.repair.base import RepairResult, RepairStatus

        if self._target:
            time.sleep(self._nap)
        return RepairResult(
            status=RepairStatus.NOT_FIXED, technique=self.name
        )


def timeout_drill(seed: int, jobs: int, scale: float) -> DrillResult:
    """A slow shard records ``shard.timeout``; every other cell completes —
    serially and on the process pool."""
    from repro.benchmarks.cache import load_benchmark
    from repro.experiments.runner import RunConfig, run_matrix
    from repro.repair import registry

    drill = DrillResult(name="shard-timeout")
    # The deadline must comfortably exceed a healthy shard's truth-oracle
    # plus one-cell cost (so no healthy shard is ever timed out, even on a
    # loaded machine), while the nap clearly overshoots it — yet stays
    # inside the ProcessExecutor watchdog allowance (2 * deadline + 1), so
    # the *cooperative* deadline path is the one under test here.
    deadline = 2.0
    nap = 3.5
    with _temp_cache():
        specs = load_benchmark("arepair", seed=seed, scale=scale)
        target = specs[0].spec_id
        registry.register(
            "ChaosSlow",
            lambda spec, cell_seed: _SlowTool(
                target=spec.spec_id == target, nap=nap
            ),
            replace=True,
        )
        try:
            # The slow technique runs first so the shard still has a
            # pending cell when the deadline check runs between cells.
            techniques = ("ChaosSlow", "ATR")
            for executor, n in (("serial", 1), ("process", jobs)):
                matrix = run_matrix(
                    RunConfig(
                        benchmark="arepair",
                        scale=scale,
                        seed=seed,
                        techniques=techniques,
                        jobs=n,
                        use_cache=False,
                        shard_timeout=deadline,
                    )
                )
                timeouts = [
                    record
                    for record in matrix.failures
                    if record.code == "shard.timeout"
                ]
                if not any(
                    record.where == f"{target}:shard" for record in timeouts
                ):
                    drill.violations.append(
                        f"{executor}: slow shard {target} recorded no "
                        "shard.timeout failure"
                    )
                for spec in specs:
                    row = matrix.outcomes.get(spec.spec_id, {})
                    for technique in techniques:
                        outcome = row.get(technique)
                        if outcome is None:
                            drill.violations.append(
                                f"{executor}: cell {spec.spec_id}:{technique} "
                                "missing from the matrix"
                            )
                        elif (
                            spec.spec_id != target
                            and outcome.status == "timeout"
                        ):
                            drill.violations.append(
                                f"{executor}: healthy cell "
                                f"{spec.spec_id}:{technique} was timed out"
                            )
                if matrix.outcomes.get(target, {}).get("ATR") is not None and (
                    matrix.outcomes[target]["ATR"].status != "timeout"
                ):
                    drill.violations.append(
                        f"{executor}: pending cell {target}:ATR should have "
                        "timed out but has status "
                        f"{matrix.outcomes[target]['ATR'].status!r}"
                    )
        finally:
            registry.unregister("ChaosSlow")
    drill.detail = {
        "target": target,
        "deadline": deadline,
        "executors": ["serial", "process"],
    }
    return drill


# -- orchestration ------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """What tells one drill suite's report apart from another's."""

    schema: str
    """Stamped into the report; bump on any shape change."""
    title: str
    held: str
    """The summary's verdict when every drill held."""
    header: tuple[str, ...]
    """Report keys shown on the summary's first line, before the site
    count."""
    report_file: str
    """Where ``repro chaos`` writes the report unless told otherwise."""


ENGINE_SUITE = Suite(
    schema=CHAOS_SCHEMA,
    title="CHAOS",
    held="all invariants held",
    header=("seed", "jobs", "scale"),
    report_file="chaos-report.json",
)


def run_suite(
    suite: Suite,
    sites: Iterable[str] | None,
    drills: Iterable[Callable[[set[str]], DrillResult]],
    **header,
) -> dict:
    """Check the sites (default: all), run each drill on them in order,
    and assemble the deterministic report.  An unknown site is refused
    before any drill starts."""
    requested = set(sites) if sites is not None else set(SITES)
    unknown = requested - set(SITES)
    if unknown:
        raise ValueError(
            f"unknown injection site(s): {', '.join(sorted(unknown))}"
        )
    results = [drill(requested) for drill in drills]
    violations = sum(len(drill.violations) for drill in results)
    return {
        "schema": suite.schema,
        **header,
        "sites": sorted(requested),
        "drills": [drill.to_json() for drill in results],
        "violations": violations,
        "ok": violations == 0,
    }


def run_drills(
    seed: int = 0,
    sites: Iterable[str] | None = None,
    jobs: int = 2,
    scale: float = 0.05,
) -> dict:
    """Run every applicable engine drill and assemble the report."""
    return run_suite(
        ENGINE_SUITE,
        sites,
        [
            lambda requested: equivalence_drill(seed, requested, jobs, scale),
            lambda requested: persist_drill(seed, requested),
            lambda requested: retry_drill(seed, requested, scale),
            lambda requested: resume_drill(seed, scale),
            lambda requested: timeout_drill(seed, jobs, scale),
        ],
        seed=seed,
        jobs=jobs,
        scale=scale,
    )


def write_report(path: Path, report: dict) -> None:
    """Emit the report as canonical JSON — byte-identical across same-seed
    runs (sorted keys, fixed indentation, trailing newline)."""
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def render_report(report: dict, suite: Suite) -> str:
    """The human-readable summary ``repro chaos`` prints for ``suite``."""
    fields = [
        f"{key}={report[key]:g}" if isinstance(report[key], float)
        else f"{key}={report[key]}"
        for key in suite.header
    ]
    fields.append(f"sites={len(report['sites'])}")
    lines = [f"{suite.title} — {' '.join(fields)}"]
    for drill in report["drills"]:
        if drill["skipped"]:
            status = "SKIP"
        else:
            status = "ok" if drill["ok"] else "FAIL"
        lines.append(f"  [{status:>4}] {drill['name']}")
        for violation in drill["violations"]:
            lines.append(f"         - {violation}")
    verdict = (
        suite.held if report["ok"] else f"{report['violations']} violation(s)"
    )
    lines.append(f"  {verdict}")
    return "\n".join(lines)
