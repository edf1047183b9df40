"""AUnit testing substrate tests: tests, suites, and generation."""

import pytest

from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.alloy.resolver import resolve_module
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.evaluator import Evaluator
from repro.analyzer.instance import make_instance
from repro.testing.aunit import FACTS_TARGET, AUnitTest, TestSuite
from repro.testing.generation import (
    counterexample_test,
    generate_suite,
    witness_test,
)


@pytest.fixture
def info(linked_list_spec):
    return resolve_module(parse_module(linked_list_spec))


GOOD = make_instance({"Node": {("N0",), ("N1",)}, "next": {("N0", "N1")}})
CYCLIC = make_instance({"Node": {("N0",)}, "next": {("N0", "N0")}})


class TestAUnitTest:
    def test_positive_test_passes_on_truth(self, info):
        test = AUnitTest(name="good", instance=GOOD, expect=True)
        assert test.passes(info)

    def test_negative_test_passes_when_facts_reject(self, info):
        test = AUnitTest(name="cyclic", instance=CYCLIC, expect=False)
        assert test.passes(info)

    def test_wrong_expectation_fails(self, info):
        test = AUnitTest(name="bad", instance=CYCLIC, expect=True)
        assert not test.passes(info)

    def test_pred_target(self, info):
        test = AUnitTest(
            name="pred", instance=GOOD, expect=True, target="nonEmpty"
        )
        assert test.passes(info)

    def test_unknown_pred_is_failure(self, info):
        test = AUnitTest(
            name="missing", instance=GOOD, expect=True, target="nothere"
        )
        assert not test.passes(info)


class TestSuiteBehaviour:
    def test_score_and_partition(self, info):
        suite = TestSuite(
            tests=[
                AUnitTest(name="a", instance=GOOD, expect=True),
                AUnitTest(name="b", instance=CYCLIC, expect=True),  # fails
            ]
        )
        assert suite.score(info) == 0.5
        assert len(suite.passing(info)) == 1
        assert len(suite.failing(info)) == 1
        assert not suite.all_pass(info)

    def test_empty_suite_scores_one(self, info):
        assert TestSuite(tests=[]).score(info) == 1.0

    def test_merge_deduplicates(self):
        first = TestSuite(tests=[AUnitTest(name="a", instance=GOOD, expect=True)])
        second = TestSuite(
            tests=[
                AUnitTest(name="dup", instance=GOOD, expect=True),
                AUnitTest(name="new", instance=CYCLIC, expect=False),
            ]
        )
        merged = first.merged_with(second)
        assert len(merged) == 2

    def test_iteration(self):
        suite = TestSuite(tests=[AUnitTest(name="a", instance=GOOD, expect=True)])
        assert [t.name for t in suite] == ["a"]


class TestGeneration:
    def test_generated_suite_passes_on_oracle(self, linked_list_spec):
        oracle = Analyzer(linked_list_spec)
        suite = generate_suite(oracle, positives=3, negatives=3, seed=1)
        assert len(suite) >= 4
        assert suite.all_pass(oracle.info)

    def test_generation_is_deterministic(self, linked_list_spec):
        oracle = Analyzer(linked_list_spec)
        first = generate_suite(oracle, seed=7)
        second = generate_suite(oracle, seed=7)
        assert [t.instance.canonical_key() for t in first] == [
            t.instance.canonical_key() for t in second
        ]

    def test_different_seeds_differ(self, linked_list_spec):
        oracle = Analyzer(linked_list_spec)
        first = generate_suite(oracle, seed=1)
        second = generate_suite(oracle, seed=2)
        names_first = [t.name for t in first]
        names_second = [t.name for t in second]
        assert names_first != names_second or [
            t.instance.canonical_key() for t in first
        ] != [t.instance.canonical_key() for t in second]

    def test_negative_tests_violate_facts(self, linked_list_spec):
        oracle = Analyzer(linked_list_spec)
        suite = generate_suite(oracle, positives=2, negatives=3, seed=3)
        negatives = [t for t in suite if not t.expect]
        assert negatives
        for test in negatives:
            assert not Evaluator(oracle.info, test.instance).facts_hold()

    def test_wrappers(self):
        cex = counterexample_test(GOOD, "c")
        assert not cex.expect and cex.target == FACTS_TARGET
        wit = witness_test(GOOD, "w")
        assert wit.expect


def test_negative_sampling_keeps_the_oracle_facts(linked_list_spec):
    """Negative tests are solved on a fact-free shadow of the oracle; the
    oracle module itself must keep its facts."""
    oracle = Analyzer(parse_module(linked_list_spec))
    paragraphs = list(oracle.module.paragraphs)
    before = print_module(oracle.module)
    suite = generate_suite(oracle, negatives=2, seed=0)
    assert any(not test.expect for test in suite.tests)
    assert oracle.module.paragraphs == paragraphs
    assert all(a is b for a, b in zip(oracle.module.paragraphs, paragraphs))
    assert print_module(oracle.module) == before
