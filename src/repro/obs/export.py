"""Trace export and the text renderers behind ``repro trace`` / ``repro profile``.

A trace file is JSONL (one record per line) written through the same
atomic, schema-stamped writer as every other durable artifact
(:mod:`repro.runtime.persist`).  Line shapes after the schema header:

- ``{"type": "run", ...}`` — run metadata (benchmark, seed, scale);
- ``{"type": "span", "name", "path", "depth", "duration", "attrs"}`` —
  one per span, flattened depth-first so the file streams and greps well;
- ``{"type": "metric", "kind": "counter"|"gauge", "key", "value"}``;
- ``{"type": "metric", "kind": "histogram", "key", "summary": {...}}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry, parse_key
from repro.obs.trace import Span
from repro.runtime.persist import atomic_write_jsonl, load_jsonl

TRACE_SCHEMA = "repro-trace/1"
"""Stamped into every trace file; bump on any record-shape change."""


def flatten_spans(spans: list[Span]) -> Iterator[dict]:
    """Depth-first span records with ``path``/``depth`` locating each one."""
    stack: list[tuple[Span, str, int]] = [
        (span, span.name, 0) for span in reversed(spans)
    ]
    while stack:
        span, path, depth = stack.pop()
        record: dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "path": path,
            "depth": depth,
            "duration": round(span.duration, 6),
        }
        if span.attrs:
            record["attrs"] = dict(span.attrs)
        yield record
        for child in reversed(span.children):
            stack.append((child, f"{path}/{child.name}", depth + 1))


def trace_records(
    spans: list[Span], metrics: MetricsRegistry, meta: dict | None = None
) -> Iterator[dict]:
    """Every record of a trace file, metadata first."""
    if meta:
        yield {"type": "run", **meta}
    yield from flatten_spans(spans)
    snapshot = metrics.snapshot()
    for key, value in snapshot["counters"].items():
        yield {"type": "metric", "kind": "counter", "key": key, "value": value}
    for key, value in snapshot["gauges"].items():
        yield {"type": "metric", "kind": "gauge", "key": key, "value": value}
    summaries = metrics.histogram_summaries()
    for key in snapshot["histograms"]:
        yield {
            "type": "metric",
            "kind": "histogram",
            "key": key,
            "summary": summaries.get(key, {"count": 0}),
        }


def write_trace(
    path: Path,
    spans: list[Span],
    metrics: MetricsRegistry,
    meta: dict | None = None,
) -> None:
    """Write one run's trace file atomically."""
    atomic_write_jsonl(
        path, trace_records(spans, metrics, meta), schema=TRACE_SCHEMA
    )


@dataclass
class TraceData:
    """A parsed trace file, ready for rendering or assertions."""

    meta: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    def span_names(self) -> set[str]:
        return {record["name"] for record in self.spans}

    def counter_total(self, name: str) -> float:
        """Sum of one counter across every label combination."""
        return sum(
            value
            for key, value in self.counters.items()
            if parse_key(key)[0] == name
        )

    def techniques(self) -> list[str]:
        """Label values seen on any ``technique``-labelled metric."""
        seen: list[str] = []
        for key in self.counters:
            technique = parse_key(key)[1].get("technique")
            if technique is not None and technique not in seen:
                seen.append(technique)
        return sorted(seen)

    def labelled_counter(self, name: str, technique: str) -> float:
        return self.counters.get(
            f"{name}{{technique={technique}}}", 0
        )

    def labelled_total(self, name: str, technique: str) -> float:
        """Sum of one counter over every key carrying ``technique=...``,
        regardless of extra labels (``analysis.pruned_typed`` also carries
        the winning ``rule``, which an exact key lookup would miss)."""
        total = 0.0
        for key, value in self.counters.items():
            base, labels = parse_key(key)
            if base == name and labels.get("technique") == technique:
                total += value
        return total


def read_trace(path: Path) -> TraceData:
    """Parse a trace file (raises ``CacheCorruptionError`` if unusable)."""
    data = TraceData()
    for record in load_jsonl(path, schema=TRACE_SCHEMA):
        kind = record.get("type")
        if kind == "run":
            data.meta = {k: v for k, v in record.items() if k != "type"}
        elif kind == "span":
            data.spans.append(record)
        elif kind == "metric":
            if record["kind"] == "counter":
                data.counters[record["key"]] = record["value"]
            elif record["kind"] == "gauge":
                data.gauges[record["key"]] = record["value"]
            else:
                data.histograms[record["key"]] = record["summary"]
    return data


def trace_data_from_snapshot(snapshot: dict, meta: dict | None = None) -> TraceData:
    """Build a renderable :class:`TraceData` straight from a metrics
    snapshot (``ResultMatrix.telemetry["metrics"]``) — no trace file
    round-trip needed for in-process reporting."""
    registry = MetricsRegistry()
    registry.merge(snapshot)
    return TraceData(
        meta=dict(meta or {}),
        counters=dict(snapshot.get("counters", {})),
        gauges=dict(snapshot.get("gauges", {})),
        histograms=registry.histogram_summaries(),
    )


def merge_trace_data(datas: list[TraceData]) -> TraceData:
    """Fold several trace files into one view (``repro profile`` over a
    multi-benchmark run).  Counters and gauges merge exactly (sum / max);
    histogram summaries merge conservatively — count, sum, min, max and the
    weighted mean are exact, while p50/p90/p99 are upper bounds (the max
    across inputs), which is the honest direction for a cost rollup."""
    if len(datas) == 1:
        return datas[0]
    merged = TraceData()
    for data in datas:
        if data.meta and not merged.meta:
            merged.meta = dict(data.meta)
        elif data.meta:
            merged.meta = {"merged": len(datas)}
        merged.spans.extend(data.spans)
        for key, value in data.counters.items():
            merged.counters[key] = merged.counters.get(key, 0) + value
        for key, value in data.gauges.items():
            merged.gauges[key] = max(merged.gauges.get(key, value), value)
        for key, summary in data.histograms.items():
            if not summary.get("count"):
                continue
            into = merged.histograms.setdefault(key, {"count": 0})
            if not into["count"]:
                merged.histograms[key] = dict(summary)
                continue
            total = into["count"] + summary["count"]
            into["mean"] = (
                into["mean"] * into["count"] + summary["mean"] * summary["count"]
            ) / total
            into["count"] = total
            into["sum"] = into["sum"] + summary["sum"]
            into["min"] = min(into["min"], summary["min"])
            into["max"] = max(into["max"], summary["max"])
            for quantile in ("p50", "p90", "p99"):
                into[quantile] = max(into[quantile], summary[quantile])
    return merged


# -- rendering ---------------------------------------------------------------


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_trace(data: TraceData, top: int = 12) -> str:
    """The ``repro trace`` report: aggregate span costs + slowest cells."""
    sections: list[str] = []
    if data.meta:
        described = "  ".join(f"{k}={v}" for k, v in sorted(data.meta.items()))
        sections.append(f"TRACE — {described}")
    else:
        sections.append("TRACE")
    sections.append("")

    by_name: dict[str, list[float]] = {}
    for record in data.spans:
        by_name.setdefault(record["name"], []).append(record["duration"])
    rows = []
    ranked = sorted(by_name.items(), key=lambda kv: -sum(kv[1]))[:top]
    for name, durations in ranked:
        rows.append(
            [
                name,
                str(len(durations)),
                f"{sum(durations):.3f}",
                f"{sum(durations) / len(durations):.4f}",
                f"{max(durations):.4f}",
            ]
        )
    sections.append(f"Top spans by total time (of {len(data.spans)} spans)")
    sections.append(
        _table(["span", "count", "total s", "mean s", "max s"], rows)
    )
    sections.append("")

    cells = [r for r in data.spans if r["name"] == "cell"]
    cells.sort(key=lambda r: -r["duration"])
    rows = [
        [
            str(record.get("attrs", {}).get("spec", "?")),
            str(record.get("attrs", {}).get("technique", "?")),
            str(record.get("attrs", {}).get("status", "?")),
            f"{record['duration']:.3f}",
        ]
        for record in cells[:top]
    ]
    sections.append(f"Slowest cells (of {len(cells)})")
    sections.append(_table(["spec", "technique", "status", "s"], rows))
    return "\n".join(sections)


_PROFILE_COLUMNS = [
    # (header, counter base name)
    ("cells", "repair.attempts"),
    ("cand", "repair.candidates"),
    ("pruned", "repair.pruned"),
    ("typed", "analysis.pruned_typed"),
    ("iters", "repair.iterations"),
    ("oracle", "repair.oracle_calls"),
    ("dedup", "analysis.dedup_hits"),
    ("solves", "sat.solves"),
    ("conflicts", "sat.conflicts"),
    ("llm.req", "llm.requests"),
    ("llm.tok", None),  # prompt + completion, filled specially
    ("retries", "llm.retries"),
]


def render_profile(data: TraceData) -> str:
    """The ``repro profile`` report: per-technique metric rollup."""
    sections: list[str] = []
    if data.meta:
        described = "  ".join(f"{k}={v}" for k, v in sorted(data.meta.items()))
        sections.append(f"PROFILE — {described}")
    else:
        sections.append("PROFILE")
    sections.append("")

    techniques = data.techniques()
    rows = []
    for technique in techniques:
        row = [technique]
        for _, base in _PROFILE_COLUMNS:
            if base is None:
                value = data.labelled_counter(
                    "llm.prompt_tokens", technique
                ) + data.labelled_counter("llm.completion_tokens", technique)
            else:
                # Summing lookup: some counters carry labels beyond
                # technique (e.g. analysis.pruned_typed's rule).
                value = data.labelled_total(base, technique)
            row.append(str(int(value)))
        rows.append(row)
    headers = ["technique"] + [header for header, _ in _PROFILE_COLUMNS]
    sections.append("Per-technique rollup")
    sections.append(_table(headers, rows))
    sections.append("")

    rows = []
    for technique in techniques:
        summary = data.histograms.get(
            f"repair.seconds{{technique={technique}}}", {"count": 0}
        )
        if not summary.get("count"):
            continue
        # Candidate throughput: candidates evaluated per second of time
        # spent inside repair() — the headline number the incremental
        # solve session moves.
        candidates = data.labelled_total("repair.candidates", technique)
        spent = summary.get("sum", 0.0)
        throughput = f"{candidates / spent:.1f}" if spent > 0 else "-"
        rows.append(
            [
                technique,
                str(int(summary["count"])),
                f"{summary['mean']:.4f}",
                f"{summary['p90']:.4f}",
                f"{summary['max']:.4f}",
                throughput,
            ]
        )
    if rows:
        sections.append("Per-technique repair time (s)")
        sections.append(
            _table(["technique", "n", "mean", "p90", "max", "cand/s"], rows)
        )
        sections.append("")

    totals = [
        ("sat.solves", "solver calls"),
        ("sat.decisions", "decisions"),
        ("sat.propagations", "propagations"),
        ("sat.conflicts", "conflicts"),
        ("sat.learned_clauses", "learned clauses"),
        ("sat.restarts", "restarts"),
        ("sat.session.reused_clauses", "session clauses reused"),
        # Every session solve: the repair tools' oracle queries and the
        # simulated LLM's self-checks.
        ("oracle.session.checks", "oracle session checks"),
        ("oracle.session.fragment_hits", "oracle fragment cache hits"),
        ("oracle.session.fragment_misses", "oracle fragment cache misses"),
        ("oracle.session.fallbacks", "oracle session fallbacks"),
        ("analyzer.commands", "analyzer commands"),
        ("analyzer.instances", "instances enumerated"),
        ("analysis.pruned_typed", "candidates pruned statically"),
        ("analysis.dedup_hits", "oracle verdicts replayed (dedup)"),
        ("aunit.evaluations", "AUnit test evaluations"),
        ("shard.aunit_hits", "AUnit verdicts replayed in the shard"),
        ("shard.suite_hits", "suite enumerations reused in the shard"),
        ("shard.score_hits", "cell scores reused in the shard"),
        ("analysis.baseline_lint_reuse", "baseline lint memo reuses"),
        ("analysis.lint_findings", "lint findings on LLM proposals"),
        ("llm.requests", "LLM requests"),
        ("llm.prompt_tokens", "LLM prompt tokens (est)"),
        ("llm.completion_tokens", "LLM completion tokens (est)"),
        ("llm.retries", "LLM retries"),
        ("service.lease_acquired", "cluster leases acquired"),
        ("service.lease_adopted", "cluster orphans adopted"),
        ("service.fencing_rejected", "stale commits fenced"),
    ]
    rows = [
        [label, str(int(data.counter_total(name)))]
        for name, label in totals
        if data.counter_total(name)
    ]
    sections.append("Global totals")
    sections.append(_table(headers=["metric", "total"], rows=rows))

    by_rule: dict[str, float] = {}
    for key, value in data.counters.items():
        base, labels = parse_key(key)
        if base == "analysis.pruned_typed" and "rule" in labels:
            by_rule[labels["rule"]] = by_rule.get(labels["rule"], 0) + value
    if by_rule:
        sections.append("")
        sections.append("Static pruning by rule")
        sections.append(
            _table(
                ["rule", "pruned"],
                [
                    [rule, str(int(count))]
                    for rule, count in sorted(
                        by_rule.items(), key=lambda kv: -kv[1]
                    )
                ],
            )
        )

    dedup = data.counter_total("analysis.dedup_hits")
    oracle = data.counter_total("repair.oracle_calls")
    if dedup and oracle:
        # The dedup headline: what fraction of oracle queries never
        # reached the solver because a canonically-equal candidate had
        # already been judged.
        sections.append("")
        sections.append(
            f"Semantic dedup: {int(dedup)} of {int(oracle)} oracle "
            f"queries replayed ({100 * dedup / oracle:.1f}% hit rate)"
        )

    replayed = data.counter_total("shard.aunit_hits")
    evaluations = data.counter_total("aunit.evaluations")
    if replayed and evaluations:
        sections.append("")
        sections.append(
            f"Shard reuse: {int(replayed)} of {int(evaluations)} AUnit "
            f"evaluations replayed ({100 * replayed / evaluations:.1f}%)"
        )

    if data.gauges:
        sections.append("")
        sections.append("Peak gauges (max across shards)")
        sections.append(
            _table(
                ["gauge", "peak"],
                [
                    [key, f"{value:g}"]
                    for key, value in sorted(data.gauges.items())
                ],
            )
        )
    return "\n".join(sections)
