"""Table II / Figure 4 reproduction: hybrid traditional + LLM combinations.

For each of the 32 (traditional, LLM) pairs the study reports the individual
repair counts, their overlap, and the union — the repair capability of the
hybrid.  The Venn diagrams of Figure 4 are rendered as text triples.

The union lets the ground truth pick the winner; a user has only the
tools' own verdicts.  So each pair also carries its two gated cascades:
``A → B`` keeps A's output where A itself reports ``fixed`` and otherwise
takes B's.  Cell seeds depend only on (run seed, spec, technique), so a
cascade computed from the matrix is exactly what running the two tools in
that order would give.
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
    traditional_first: int
    """Repairs of the cascade traditional → LLM."""
    llm_first: int
    """Repairs of the cascade LLM → traditional."""

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


def _cascade(first: set[str], claimed: set[str], second: set[str]) -> int:
    """Repairs of running the first tool, keeping its output where it
    reports ``fixed`` (``claimed``) and falling back to the second tool's
    output everywhere else (``error``, ``timeout`` and ``crashed`` included).
    """
    return len(first & claimed) + len(second - claimed)


def compute_hybrid(
    matrices: list[ResultMatrix], techniques: list[str] | None = None
) -> HybridAnalysis:
    ran = techniques or TRADITIONAL + SINGLE_ROUND + MULTI_ROUND
    trads = [t for t in TRADITIONAL if t in ran]
    llms = [t for t in SINGLE_ROUND + MULTI_ROUND if t in ran]
    repaired: dict[str, set[str]] = {t: set() for t in trads + llms}
    claimed: dict[str, set[str]] = {t: set() for t in trads + llms}
    total = 0
    for matrix in matrices:
        total += len(matrix.specs)
        for technique, bucket in repaired.items():
            for spec_id in matrix.repaired_ids(technique):
                bucket.add(f"{matrix.benchmark}:{spec_id}")
            for spec_id, row in matrix.outcomes.items():
                if technique in row and row[technique].status == "fixed":
                    claimed[technique].add(f"{matrix.benchmark}:{spec_id}")
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
                traditional_first=_cascade(
                    trad_set, claimed[traditional], llm_set
                ),
                llm_first=_cascade(llm_set, claimed[llm], trad_set),
            )
    return HybridAnalysis(cells=cells, total_specs=total)


def render_table2(analysis: HybridAnalysis) -> str:
    """Text rendering of Table II with paper values scaled alongside."""
    lines = [
        "Table II — hybrid repair capabilities (measured)",
        f"Total specifications: {analysis.total_specs}",
        "",
        f"{'traditional':<12}{'llm':<22}{'trad':>6}{'llm':>6}"
        f"{'overlap':>9}{'union':>7}{'trad→llm':>10}{'llm→trad':>10}"
        f"{'paper-union(scaled)':>21}",
    ]
    paper_total = 1974
    scale = analysis.total_specs / paper_total
    for (traditional, llm), cell in analysis.cells.items():
        paper_row = PAPER_TABLE2.get((traditional, llm))
        paper_union = round(paper_row[3] * scale) if paper_row else 0
        lines.append(
            f"{traditional:<12}{llm:<22}{cell.traditional_repairs:>6}"
            f"{cell.llm_repairs:>6}{cell.overlap:>9}{cell.union:>7}"
            f"{cell.traditional_first:>10}{cell.llm_first:>10}"
            f"{paper_union:>21}"
        )
    best = analysis.best()
    lines.append("")
    if best is None:
        return "\n".join(lines + ["no hybrid pairs ran"])
    lines.append(
        "A→B: A's output where A itself reports fixed, else B's "
        "(the union needs the ground truth)"
    )
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
