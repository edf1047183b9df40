"""Metric tests: REP, TM (BLEU), SM (subtree kernel), Pearson."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.bleu import modified_precision, sentence_bleu, token_match, tokenize
from repro.metrics.pearson import correlation_matrix, pearson
from repro.metrics.rep import rep, rep_outcome, truth_command_outcomes
from repro.metrics.syntax_match import subtree_multiset, subtree_shape, syntax_match

TRUTH = """
sig Node { next: lone Node }
fact Acyclic { all n: Node | n not in n.^next }
pred show { some Node }
assert NoCycle { no n: Node | n in n.^next }
run show for 3 expect 1
check NoCycle for 3 expect 0
"""
FAULTY = TRUTH.replace("n not in n.^next", "n not in n.next")


class TestBleu:
    def test_identical_texts_score_one(self):
        assert sentence_bleu("a b c d e", "a b c d e") == pytest.approx(1.0)

    def test_disjoint_texts_score_zero(self):
        assert sentence_bleu("a b c d", "w x y z") == 0.0

    def test_partial_overlap_between_zero_and_one(self):
        score = sentence_bleu("a b c d e f", "a b c d x y")
        assert 0.0 < score < 1.0

    def test_symmetry_not_required(self):
        # BLEU is directional (candidate vs reference).
        forward = sentence_bleu("a b", "a b c d e f g h")
        backward = sentence_bleu("a b c d e f g h", "a b")
        assert forward != backward

    def test_brevity_penalty_applies(self):
        short = sentence_bleu("a b c d", "a b c d e f g h")
        assert short < 1.0

    def test_empty_candidate(self):
        assert sentence_bleu("", "a b") == 0.0
        assert sentence_bleu("", "") == 1.0

    def test_modified_precision_clipping(self):
        matches, total = modified_precision(
            tokenize("the the the"), tokenize("the cat"), 1
        )
        assert matches == 1 and total == 3

    def test_token_match_on_specs(self):
        assert token_match(TRUTH, TRUTH) == pytest.approx(1.0)
        assert 0.5 < token_match(FAULTY, TRUTH) < 1.0

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bleu_bounded(self, tokens):
        text = " ".join(tokens)
        score = sentence_bleu(text, "a b c d e f")
        assert 0.0 <= score <= 1.0


class TestSyntaxMatch:
    def test_identical_specs_score_one(self):
        assert syntax_match(TRUTH, TRUTH) == pytest.approx(1.0)

    def test_single_edit_reduces_score(self):
        assert 0.0 < syntax_match(FAULTY, TRUTH) < 1.0

    def test_whitespace_irrelevant(self):
        reformatted = TRUTH.replace("\n", "\n\n").replace("{ ", "{\n")
        assert syntax_match(reformatted, TRUTH) == pytest.approx(1.0)

    def test_unparseable_candidate_scores_zero(self):
        assert syntax_match("not a spec at all", TRUTH) == 0.0

    def test_unparseable_reference_rejected(self):
        with pytest.raises(ValueError):
            syntax_match(TRUTH, "garbage ::")

    def test_disjoint_specs_score_low(self):
        other = "sig Zebra { stripes: set Zebra }"
        assert syntax_match(other, TRUTH) < 0.5

    def test_subtree_multiset_counts(self):
        from repro.alloy.parser import parse_module

        counts = subtree_multiset(parse_module("sig A {}\nsig B {}"))
        assert sum(counts.values()) >= 3

    def test_shapes_are_pinned_and_counted_per_node(self):
        from collections import Counter

        from repro.alloy.parser import parse_module

        module = parse_module("sig A { f: lone A }\nfact { all a: A | a not in a.^f }")
        assert subtree_shape(module) == (
            "Module(SigDecl:A(FieldDecl:f(UnaryType:lone(NameExpr:A()))),"
            "FactDecl(Block(Quantified:all(Decl(NameExpr:A()),Not(Compare:in("
            "NameExpr:a(),BinaryExpr:.(NameExpr:a(),UnaryExpr:^(NameExpr:f()))"
            "))))))"
        )
        for text in (TRUTH, FAULTY):
            module = parse_module(text)
            assert subtree_multiset(module) == Counter(
                subtree_shape(node) for node in module.walk()
            )

    def test_reference_side_computed_once_per_sharing_scope(self, monkeypatch):
        import importlib

        from repro.analysis.canon import verdict_sharing

        module = importlib.import_module("repro.metrics.syntax_match")
        unscoped = [syntax_match(FAULTY, TRUTH), syntax_match(TRUTH, TRUTH)]
        calls = []
        reference_side = module._reference_side

        def counting(reference):
            calls.append(reference)
            return reference_side(reference)

        monkeypatch.setattr(module, "_reference_side", counting)
        with verdict_sharing():
            scoped = [syntax_match(FAULTY, TRUTH), syntax_match(TRUTH, TRUTH)]
        assert scoped == unscoped
        assert len(calls) == 1

    def test_more_similar_scores_higher(self):
        barely_changed = TRUTH.replace("some Node", "no Node")
        heavily_changed = TRUTH.replace(
            "all n: Node | n not in n.^next", "some Node"
        )
        assert syntax_match(barely_changed, TRUTH) > syntax_match(
            heavily_changed, TRUTH
        )


class TestRep:
    def test_truth_scores_one(self):
        assert rep(TRUTH, TRUTH) == 1

    def test_fault_scores_zero(self):
        assert rep(FAULTY, TRUTH) == 0

    def test_uncompilable_candidate_scores_zero(self):
        outcome = rep_outcome("sig A {", TRUTH)
        assert outcome.rep == 0 and not outcome.compiled

    def test_mismatched_commands_reported(self):
        outcome = rep_outcome(FAULTY, TRUTH)
        assert "NoCycle" in outcome.mismatched_commands

    def test_cached_truth_outcomes(self):
        cached = truth_command_outcomes(TRUTH)
        outcome = rep_outcome(TRUTH, TRUTH, cached)
        assert outcome.rep == 1

    def test_semantically_equivalent_variant_scores_one(self):
        variant = TRUTH.replace(
            "all n: Node | n not in n.^next",
            "no n: Node | n in n.^next",
        )
        assert rep(variant, TRUTH) == 1

    def test_truth_without_commands_rejected(self):
        with pytest.raises(ValueError):
            rep(TRUTH, "sig A {}")

    def test_candidate_missing_assertion_scores_zero(self):
        candidate = TRUTH.replace("NoCycle", "Renamed")
        assert rep(candidate, TRUTH) == 0


class TestPearson:
    def test_perfect_positive(self):
        result = pearson([1, 2, 3, 4], [2, 4, 6, 8])
        assert result.r == pytest.approx(1.0)
        assert result.p_value == pytest.approx(0.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]).r == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        result = pearson([1, 1, 1], [1, 2, 3])
        assert result.r == 0.0 and result.p_value == 1.0

    def test_matches_scipy(self):
        import scipy.stats

        xs = [0.1, 0.4, 0.35, 0.8, 0.6, 0.9, 0.2, 0.5]
        ys = [0.2, 0.5, 0.3, 0.7, 0.65, 0.8, 0.25, 0.45]
        ours = pearson(xs, ys)
        theirs = scipy.stats.pearsonr(xs, ys)
        assert ours.r == pytest.approx(theirs.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    def test_correlation_matrix_symmetric(self):
        series = {"a": [1.0, 2.0, 3.0, 2.5], "b": [2.0, 2.5, 3.5, 3.0]}
        matrix = correlation_matrix(series)
        assert matrix[("a", "b")].r == matrix[("b", "a")].r
        assert matrix[("a", "a")].r == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0, max_value=1),
            ),
            min_size=3,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_r_bounded(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        result = pearson(xs, ys)
        assert -1.0 <= result.r <= 1.0
        assert 0.0 <= result.p_value <= 1.0
