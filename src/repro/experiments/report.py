"""Full experiment report generation (used by ``repro all`` and EXPERIMENTS.md).

Assembles every regenerated artifact — corpus statistics, Table I, Figure 2,
Figure 3, Table II/Figure 4 — into one text report with the paper's values
alongside for shape comparison, then the verdict of every checked finding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.benchmarks.stats import render_stats, summarize
from repro.experiments.figure2 import compute_figure2, render_figure2
from repro.experiments.figure3 import compute_figure3, render_figure3
from repro.experiments.findings import check_findings, render_findings
from repro.experiments.hybrid import compute_hybrid, render_figure4, render_table2
from repro.experiments.runner import ResultMatrix
from repro.experiments.table1 import compute_table1, render_table1
from repro.obs.export import (
    merge_trace_data,
    render_profile,
    trace_data_from_snapshot,
)
from repro.runtime.guard import summarize_failures


@dataclass
class StudyReport:
    """All computed artifacts of one study run."""

    arepair: ResultMatrix
    alloy4fun: ResultMatrix
    text: str


def generate_report(
    arepair: ResultMatrix,
    alloy4fun: ResultMatrix,
    techniques: list[str] | None,
    started: float,
) -> StudyReport:
    """Render the complete study report from the two benchmarks' matrices.

    ``techniques`` restricts every artifact and the findings to a subset,
    as the single-artifact commands do.  ``started`` (a ``time.time()``) is
    when the runs began, for the report's closing timing line.  Traced
    matrices add a TELEMETRY section rolling up the per-technique costs.
    """
    seed, scale = alloy4fun.seed, alloy4fun.scale
    matrices = [arepair, alloy4fun]

    sections = [
        "REPRODUCTION REPORT — Towards More Dependable Specifications (DSN 2025)",
        f"seed={seed}  alloy4fun-scale={scale}  "
        f"({len(arepair.specs)} + {len(alloy4fun.specs)} specifications)",
        "",
        render_stats(summarize(arepair.specs), "ARepair benchmark"),
        "",
        render_stats(summarize(alloy4fun.specs), "Alloy4Fun benchmark (sampled)"),
        "",
        render_table1(compute_table1(arepair, alloy4fun, techniques)),
        "",
        render_figure2(compute_figure2(matrices, techniques)),
        "",
        render_figure3(compute_figure3(matrices, techniques)),
        "",
    ]
    analysis = compute_hybrid(matrices, techniques)
    sections.append(render_table2(analysis))
    sections.append("")
    sections.append(render_figure4(analysis))
    sections.append("")
    checks = check_findings(arepair, alloy4fun, techniques)
    sections += [render_findings(checks), ""]
    telemetry = [m.telemetry for m in matrices if m.telemetry is not None]
    if telemetry:
        # The traced run's cost profile: where each technique spent its
        # SAT/analyzer/LLM effort, rolled up across both benchmarks.
        merged = merge_trace_data(
            [trace_data_from_snapshot(t["metrics"]) for t in telemetry]
        )
        paths = ", ".join(t["trace_path"] for t in telemetry)
        sections.append("TELEMETRY (traced run)")
        sections.append(f"trace files: {paths}")
        sections.append("")
        sections.append(render_profile(merged))
        sections.append("")
    failures = arepair.failures + alloy4fun.failures
    if failures:
        # Crash-isolated cells are scored as misses; surfacing them keeps
        # a degraded run honest about what it measured.
        codes = ", ".join(
            f"{code}×{count}"
            for code, count in summarize_failures(failures).items()
        )
        sections.append(
            f"WARNING: {len(failures)} (spec, technique) cells failed and "
            f"were scored as unrepaired [{codes}]"
        )
        sections.append("")
    sections.append(f"report generated in {time.time() - started:.0f}s")
    return StudyReport(
        arepair=arepair, alloy4fun=alloy4fun, text="\n".join(sections)
    )
