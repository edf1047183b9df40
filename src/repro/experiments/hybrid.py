"""Table II / Figure 4 reproduction: hybrid traditional + LLM combinations.

For each of the 32 (traditional, LLM) pairs the study reports the individual
repair counts, their overlap, and the union — the repair capability of the
hybrid.  The Venn diagrams of Figure 4 are rendered as text triples.

Beyond the paper's set-union analysis, :func:`sequential_hybrid` implements
the *pipeline* hybrid the discussion section proposes: run the traditional
tool's fault localization, feed the location to the LLM as a Loc hint, and
let the multi-round loop refine — a genuinely integrated combination.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.paper_values import PAPER_TABLE2
from repro.experiments.runner import ResultMatrix
from repro.repair.registry import MULTI_ROUND, SINGLE_ROUND, TRADITIONAL


@dataclass(frozen=True)
class HybridCell:
    """One Venn diagram: a traditional tool paired with an LLM technique."""

    traditional: str
    llm: str
    traditional_repairs: int
    llm_repairs: int
    overlap: int

    @property
    def union(self) -> int:
        return self.traditional_repairs + self.llm_repairs - self.overlap

    @property
    def unique_traditional(self) -> int:
        return self.traditional_repairs - self.overlap

    @property
    def unique_llm(self) -> int:
        return self.llm_repairs - self.overlap


@dataclass
class HybridAnalysis:
    """The hybrid combinations of the (traditional, LLM) pairs that ran."""

    cells: dict[tuple[str, str], HybridCell]
    total_specs: int

    def best(self) -> HybridCell | None:
        return max(self.cells.values(), key=lambda c: c.union, default=None)


def compute_hybrid(
    matrices: list[ResultMatrix], techniques: list[str] | None = None
) -> HybridAnalysis:
    ran = techniques or TRADITIONAL + SINGLE_ROUND + MULTI_ROUND
    trads = [t for t in TRADITIONAL if t in ran]
    llms = [t for t in SINGLE_ROUND + MULTI_ROUND if t in ran]
    repaired: dict[str, set[str]] = {t: set() for t in trads + llms}
    total = 0
    for matrix in matrices:
        total += len(matrix.specs)
        for technique, bucket in repaired.items():
            for spec_id in matrix.repaired_ids(technique):
                bucket.add(f"{matrix.benchmark}:{spec_id}")
    cells: dict[tuple[str, str], HybridCell] = {}
    for traditional in trads:
        for llm in llms:
            trad_set = repaired[traditional]
            llm_set = repaired[llm]
            cells[(traditional, llm)] = HybridCell(
                traditional=traditional,
                llm=llm,
                traditional_repairs=len(trad_set),
                llm_repairs=len(llm_set),
                overlap=len(trad_set & llm_set),
            )
    return HybridAnalysis(cells=cells, total_specs=total)


def render_table2(analysis: HybridAnalysis) -> str:
    """Text rendering of Table II with paper values scaled alongside."""
    lines = [
        "Table II — hybrid repair capabilities (measured)",
        f"Total specifications: {analysis.total_specs}",
        "",
        f"{'traditional':<12}{'llm':<22}{'trad':>6}{'llm':>6}"
        f"{'overlap':>9}{'union':>7}{'paper-union(scaled)':>21}",
    ]
    paper_total = 1974
    scale = analysis.total_specs / paper_total
    for (traditional, llm), cell in analysis.cells.items():
        paper_row = PAPER_TABLE2.get((traditional, llm))
        paper_union = round(paper_row[3] * scale) if paper_row else 0
        lines.append(
            f"{traditional:<10}{llm:<24}{cell.traditional_repairs:>6}"
            f"{cell.llm_repairs:>6}{cell.overlap:>9}{cell.union:>7}"
            f"{paper_union:>21}"
        )
    best = analysis.best()
    lines.append("")
    if best is None:
        return "\n".join(lines + ["no hybrid pairs ran"])
    lines.append(
        f"Best hybrid (measured): {best.traditional} + {best.llm} = "
        f"{best.union}/{analysis.total_specs} "
        f"({best.union / max(analysis.total_specs, 1):.1%}) "
        "(paper: ATR + Multi-Round_None = 1677/1974 = 85.5%)"
    )
    return "\n".join(lines)


def render_figure4(analysis: HybridAnalysis) -> str:
    """The Venn diagrams as text: (unique-trad | overlap | unique-llm)."""
    lines = [
        "Figure 4 — Venn diagrams of hybrid repair capabilities (measured)",
        "Each cell: unique-traditional ( overlap ) unique-LLM",
        "",
    ]
    if not analysis.cells:
        return "\n".join(lines + ["no hybrid pairs ran"])
    columns = list(dict.fromkeys(t for t, _ in analysis.cells))
    llm_rows = list(dict.fromkeys(llm for _, llm in analysis.cells))
    header = f"{'':<24}" + "".join(f"{t:>22}" for t in columns)
    lines.append(header)
    for llm in llm_rows:
        cells = []
        for traditional in columns:
            cell = analysis.cells[(traditional, llm)]
            cells.append(
                f"{cell.unique_traditional:>6}({cell.overlap:>5}){cell.unique_llm:>6}   "
            )
        lines.append(f"{llm:<24}" + "".join(f"{c:>22}" for c in cells))
    return "\n".join(lines)


def sequential_hybrid(spec, seed: int = 0, feedback_value: str = "Generic"):
    """The pipeline hybrid the paper's discussion proposes (an extension
    beyond its set-union analysis): localize with the traditional machinery,
    then hand the location to the multi-round LLM as a hint.

    Returns the :class:`repro.repair.base.RepairResult` of the hybrid run.
    """
    from repro.benchmarks.faults import describe_location
    from repro.llm.mock_gpt import GPT4_PROFILE, MockGPT
    from repro.llm.prompts import FeedbackLevel, RepairHints
    from repro.repair.base import PropertyOracle, RepairTask
    from repro.repair.localization import Discriminator, localize
    from repro.repair.multi_round import MultiRoundLLM

    task = RepairTask.from_source(spec.faulty_source)
    oracle = PropertyOracle(task)
    evidence = oracle.failing_evidence_by_command(task.module, max_instances=3)
    discriminators = [
        Discriminator.from_command_evidence(command, instance)
        for command, instances in evidence
        for instance in instances
    ]
    locations = localize(task.module, task.info, discriminators, max_locations=3)
    hints = None
    if locations:
        hints = RepairHints(
            location=describe_location(task.module, locations[0].path)
        )
    tool = MultiRoundLLM(
        MockGPT(seed=seed, profile=GPT4_PROFILE),
        FeedbackLevel(feedback_value),
        hints=hints,
    )
    tool.name = f"Pipeline-Hybrid_{feedback_value}"
    return tool.repair(task)
