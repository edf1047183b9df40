"""Experiment engine tests on a miniature benchmark slice."""

import pytest

from repro.benchmarks.faults import FaultySpec
from repro.benchmarks.models import get_model
from repro.experiments.figure2 import compute_figure2, render_figure2
from repro.experiments.figure3 import compute_figure3, render_figure3
from repro.experiments.hybrid import compute_hybrid, render_figure4, render_table2
from repro.experiments.paper_values import (
    PAPER_TABLE1_A4F,
    PAPER_TABLE2,
    TECHNIQUE_ORDER,
)
from repro.experiments.runner import (
    ALL_TECHNIQUES,
    ResultMatrix,
    SpecOutcome,
    run_spec,
)
from repro.experiments.table1 import compute_table1, render_table1
from repro.llm.prompts import RepairHints


def _spec(spec_id="graphs_a#0000"):
    truth = get_model("graphs_a").source
    faulty = truth.replace("n not in n.^adj", "n not in n.adj", 1)
    return FaultySpec(
        spec_id=spec_id,
        benchmark="alloy4fun",
        domain="graphs",
        model_name="graphs_a",
        faulty_source=faulty,
        truth_source=truth,
        fault_description="closure of adj dropped",
        depth=1,
        hints=RepairHints(
            location="fact 'Acyclic', constraint 1",
            fix_description="A transitive closure seems to be misused here.",
            passing_assertion="NoCycle",
        ),
    )


def _matrix(rep_by_technique: dict[str, list[int]]) -> ResultMatrix:
    """Build a synthetic matrix: each technique gets a rep vector."""
    num_specs = len(next(iter(rep_by_technique.values())))
    specs = []
    for index in range(num_specs):
        spec = _spec(f"s#{index}")
        specs.append(spec)
    matrix = ResultMatrix(benchmark="alloy4fun", seed=0, scale=1.0, specs=specs)
    for index, spec in enumerate(specs):
        row = {}
        for technique, reps in rep_by_technique.items():
            rep_value = reps[index]
            row[technique] = SpecOutcome(
                spec_id=spec.spec_id,
                technique=technique,
                rep=rep_value,
                tm=0.5 + 0.4 * rep_value + 0.01 * index,
                sm=0.6 + 0.3 * rep_value + 0.01 * index,
                status="fixed" if rep_value else "not_fixed",
                elapsed=0.01,
            )
        matrix.outcomes[spec.spec_id] = row
    return matrix


@pytest.fixture
def synthetic_matrices():
    vectors = {}
    base = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1]
    for offset, technique in enumerate(TECHNIQUE_ORDER):
        rotated = base[offset % len(base) :] + base[: offset % len(base)]
        vectors[technique] = rotated
    return [_matrix(vectors)]


class TestRunSpec:
    def test_run_spec_traditional(self):
        outcome = run_spec(_spec(), "BeAFix", seed=0)
        assert outcome.technique == "BeAFix"
        assert outcome.rep in (0, 1)
        assert 0.0 <= outcome.tm <= 1.0
        assert 0.0 <= outcome.sm <= 1.0

    def test_run_spec_llm(self):
        outcome = run_spec(_spec(), "Single-Round_Loc+Fix", seed=0)
        assert outcome.rep in (0, 1)

    def test_run_spec_deterministic(self):
        first = run_spec(_spec(), "Multi-Round_None", seed=3)
        second = run_spec(_spec(), "Multi-Round_None", seed=3)
        assert first.rep == second.rep and first.tm == second.tm

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError):
            run_spec(_spec(), "Quantum-Repair", seed=0)

    def test_all_techniques_enumerated(self):
        assert len(ALL_TECHNIQUES) == 12
        assert ALL_TECHNIQUES == TECHNIQUE_ORDER


class TestMatrixProjections:
    def test_rep_count(self, synthetic_matrices):
        matrix = synthetic_matrices[0]
        assert matrix.rep_count("ARepair") == 6

    def test_similarity_series_aligned(self, synthetic_matrices):
        matrix = synthetic_matrices[0]
        series = matrix.similarity_series("ATR", "tm")
        assert len(series) == 10

    def test_repaired_ids(self, synthetic_matrices):
        matrix = synthetic_matrices[0]
        ids = matrix.repaired_ids("ARepair")
        assert len(ids) == 6


class TestRenderers:
    def test_table1_renders(self, synthetic_matrices):
        table = compute_table1(synthetic_matrices[0], synthetic_matrices[0])
        text = render_table1(table)
        assert "Table I" in text and "SUMMARY" in text
        assert "paper(scaled)" in text

    def test_figure2_renders(self, synthetic_matrices):
        figure = compute_figure2(synthetic_matrices)
        text = render_figure2(figure)
        assert "Figure 2" in text and "ATR" in text
        for technique in TECHNIQUE_ORDER:
            assert 0.0 <= figure.tm[technique] <= 1.0

    def test_figure3_renders(self, synthetic_matrices):
        figure = compute_figure3(synthetic_matrices)
        text = render_figure3(figure)
        assert "Pearson" in text
        assert figure.r("ATR", "ATR") == pytest.approx(1.0)

    def test_hybrid_analysis(self, synthetic_matrices):
        analysis = compute_hybrid(synthetic_matrices)
        assert len(analysis.cells) == 32
        cell = analysis.cells[("ATR", "Multi-Round_None")]
        assert cell.union == (
            cell.traditional_repairs + cell.llm_repairs - cell.overlap
        )
        assert cell.unique_traditional >= 0 and cell.unique_llm >= 0

    def test_hybrid_covers_only_pairs_that_ran(self, synthetic_matrices):
        none = compute_hybrid(synthetic_matrices, ["ATR", "BeAFix"])
        assert none.cells == {} and none.best() is None
        assert render_table2(none).endswith("no hybrid pairs ran")
        assert render_figure4(none).endswith("no hybrid pairs ran")
        one = compute_hybrid(synthetic_matrices, ["ATR", "Multi-Round_None"])
        assert list(one.cells) == [("ATR", "Multi-Round_None")]
        assert one.best() is one.cells[("ATR", "Multi-Round_None")]

    def test_hybrid_renders(self, synthetic_matrices):
        analysis = compute_hybrid(synthetic_matrices)
        table = render_table2(analysis).splitlines()
        assert "Table II" in table[0]
        assert table[3].split()[:2] == ["traditional", "llm"]
        assert "Venn" in render_figure4(analysis)

    def test_hybrid_union_never_below_parts(self, synthetic_matrices):
        analysis = compute_hybrid(synthetic_matrices)
        for cell in analysis.cells.values():
            assert cell.union >= cell.traditional_repairs
            assert cell.union >= cell.llm_repairs


class TestPaperValues:
    def test_a4f_totals_consistent(self):
        assert sum(
            row["total"]
            for row in __import__(
                "repro.experiments.paper_values", fromlist=["x"]
            ).PAPER_TABLE1_A4F_DOMAINS.values()
        ) == 1936

    def test_table2_unions_consistent(self):
        for (trad, llm), (t, l, o, u) in PAPER_TABLE2.items():
            assert u == t + l - o, (trad, llm)

    def test_technique_names_cover_table1(self):
        assert set(PAPER_TABLE1_A4F) == set(TECHNIQUE_ORDER)
