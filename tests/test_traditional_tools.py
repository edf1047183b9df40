"""Integration tests for the four traditional repair tools."""

import pytest

from repro.analyzer.analyzer import Analyzer
from repro.benchmarks.models import get_model
from repro.metrics.rep import rep
from repro.repair.arepair import ARepair, ARepairConfig
from repro.repair.atr import Atr, AtrConfig
from repro.repair.base import (
    PropertyOracle,
    RepairStatus,
    RepairTask,
)
from repro.repair.beafix import BeAFix, BeAFixConfig
from repro.repair.icebar import Icebar, IcebarConfig
from repro.testing.generation import generate_suite

TRUTH = """
sig Node { next: lone Node }

fact Acyclic {
  all n: Node | n not in n.^next
}

pred nonEmpty { some Node }
assert NoCycle { no n: Node | n in n.^next }

run nonEmpty for 3 expect 1
check NoCycle for 3 expect 0
"""

FAULTY_OPERATOR = TRUTH.replace("n not in n.^next", "n not in n.next")
FAULTY_DROPPED = TRUTH.replace("  all n: Node | n not in n.^next\n", "  some Node\n")


@pytest.fixture
def operator_task():
    return RepairTask.from_source(FAULTY_OPERATOR)


@pytest.fixture
def dropped_task():
    return RepairTask.from_source(FAULTY_DROPPED)


class TestPropertyOracle:
    def test_truth_meets_oracle(self):
        task = RepairTask.from_source(TRUTH)
        oracle = PropertyOracle(task)
        ok, results = oracle.evaluate_module(task.module)
        assert ok and len(results) == 2

    def test_faulty_fails_oracle(self, operator_task):
        oracle = PropertyOracle(operator_task)
        ok, _ = oracle.evaluate_module(operator_task.module)
        assert not ok

    def test_failing_evidence_collected(self, operator_task):
        oracle = PropertyOracle(operator_task)
        evidence = oracle.failing_evidence(operator_task.module)
        assert evidence  # counterexamples to the check

    def test_oracle_counts_queries(self, operator_task):
        oracle = PropertyOracle(operator_task)
        oracle.evaluate_module(operator_task.module)
        assert oracle.queries == 1


class TestBeAFix:
    def test_repairs_operator_fault(self, operator_task):
        result = BeAFix().repair(operator_task)
        assert result.fixed
        assert rep(result.candidate_source, TRUTH) == 1

    def test_cannot_repair_dropped_constraint(self, dropped_task):
        # Pure mutation search cannot re-synthesize a deleted constraint.
        result = BeAFix().repair(dropped_task)
        assert not result.fixed

    def test_pruning_reduces_oracle_queries(self, operator_task):
        # Second input: the corpus's graphs_a with its closure dropped.
        graphs = get_model("graphs_a").source.replace("n.^adj", "n.adj", 1)
        for task in (operator_task, RepairTask.from_source(graphs)):
            pruned = BeAFix(BeAFixConfig(prune=True)).repair(task)
            unpruned = BeAFix(
                BeAFixConfig(prune=False, max_oracle_queries=10_000)
            ).repair(task)
            assert pruned.fixed and unpruned.fixed
            assert pruned.oracle_queries <= unpruned.oracle_queries

    def test_candidate_meets_own_oracle(self, operator_task):
        result = BeAFix().repair(operator_task)
        oracle = PropertyOracle(operator_task)
        ok, _ = oracle.evaluate_module(result.candidate)
        assert ok


class TestAtr:
    def test_repairs_operator_fault(self, operator_task):
        result = Atr().repair(operator_task)
        assert result.fixed
        assert rep(result.candidate_source, TRUTH) == 1

    def test_repairs_dropped_constraint_via_strengthening(self, dropped_task):
        result = Atr().repair(dropped_task)
        assert result.fixed
        assert "strengthen" in result.detail

    def test_budget_bounded(self, operator_task):
        config = AtrConfig(max_oracle_queries=1, max_candidates=5)
        result = Atr(config).repair(operator_task)
        assert result.oracle_queries <= 2  # one query may complete in flight


class TestARepair:
    def test_repairs_with_discriminating_suite(self, operator_task):
        suite = generate_suite(
            Analyzer(TRUTH), positives=4, negatives=4, seed=5
        )
        result = ARepair(suite).repair(operator_task)
        # ARepair either fixes it or stalls; when fixed, all tests pass.
        if result.fixed:
            from repro.alloy.resolver import resolve_module

            assert suite.all_pass(resolve_module(result.candidate))

    def test_trivially_passing_suite_returns_input(self, operator_task):
        from repro.testing.aunit import TestSuite

        result = ARepair(TestSuite(tests=[])).repair(operator_task)
        assert result.fixed
        # Overfit: "fixed" by its own oracle but wrong per ground truth.
        assert rep(result.final_source(operator_task), TRUTH) == 0

    def test_iteration_budget(self, operator_task):
        suite = generate_suite(Analyzer(TRUTH), positives=4, negatives=4, seed=5)
        config = ARepairConfig(max_iterations=1)
        result = ARepair(suite, config).repair(operator_task)
        assert result.iterations <= 1


class TestIcebar:
    def test_validates_against_property_oracle(self, operator_task):
        suite = generate_suite(Analyzer(TRUTH), positives=3, negatives=3, seed=2)
        result = Icebar(suite).repair(operator_task)
        if result.fixed:
            oracle = PropertyOracle(operator_task)
            ok, _ = oracle.evaluate_module(result.candidate)
            assert ok

    def test_outperforms_bare_arepair_on_overfit(self, operator_task):
        """With an empty suite ARepair 'fixes' nothing; ICEBAR detects the
        oracle violation and refines."""
        from repro.testing.aunit import TestSuite

        arepair_result = ARepair(TestSuite(tests=[])).repair(operator_task)
        icebar_result = Icebar(TestSuite(tests=[])).repair(operator_task)
        arepair_rep = rep(arepair_result.final_source(operator_task), TRUTH)
        icebar_rep = rep(icebar_result.final_source(operator_task), TRUTH)
        assert icebar_rep >= arepair_rep

    def test_refinement_budget_respected(self, operator_task):
        from repro.testing.aunit import TestSuite

        config = IcebarConfig(max_refinements=1)
        result = Icebar(TestSuite(tests=[]), config).repair(operator_task)
        assert result.iterations <= 1


class TestRepairResult:
    def test_final_source_falls_back_to_input(self, operator_task):
        from repro.repair.base import RepairResult

        result = RepairResult(status=RepairStatus.ERROR, technique="x")
        assert result.final_source(operator_task) == operator_task.source

    def test_error_status_from_bad_input(self):
        task = RepairTask.from_source(TRUTH)  # fine input
        result = BeAFix().repair(task)
        # A correct spec yields no failing evidence; search finds nothing.
        assert result.status in (RepairStatus.NOT_FIXED, RepairStatus.FIXED)
