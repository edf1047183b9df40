"""AUnit-style unit tests for Alloy specifications.

Following Sullivan et al.'s AUnit framework (the test format consumed by
ARepair), a test pairs a concrete *valuation* — an :class:`Instance` — with
an expectation about the specification: either that the facts (and optionally
a predicate) hold in the valuation, or that they do not.

ARepair searches for a specification under which every test passes; ICEBAR
grows the suite with counterexample-derived tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.alloy.errors import AlloyError
from repro.alloy.resolver import ModuleInfo
from repro.analysis.canon import shared_verdicts
from repro.analyzer.evaluator import Evaluator
from repro.analyzer.instance import Instance

FACTS_TARGET = "<facts>"
"""Pseudo-target meaning "the conjunction of all facts"."""


@dataclass(frozen=True)
class AUnitTest:
    """One AUnit-style test case."""

    name: str
    instance: Instance
    expect: bool
    target: str = FACTS_TARGET
    """Either :data:`FACTS_TARGET` or the name of a zero-argument predicate
    (which is checked in conjunction with the facts, as AUnit commands do)."""

    def passes(self, info: ModuleInfo) -> bool:
        """Whether the test passes against the given (resolved) module."""
        evaluator = Evaluator(info, self.instance)
        try:
            actual = evaluator.facts_hold()
            if actual and self.target != FACTS_TARGET:
                actual = evaluator.pred_holds(self.target)
        except AlloyError:
            # A valuation the candidate cannot even evaluate counts as a
            # failure, mirroring AUnit's treatment of runtime errors.
            return False
        return actual == self.expect


@dataclass
class TestSuite:
    """An ordered collection of AUnit tests."""

    __test__ = False  # not a pytest class, despite the name

    tests: list[AUnitTest]

    def __len__(self) -> int:
        return len(self.tests)

    def __iter__(self):
        return iter(self.tests)

    def verdicts(self, info: ModuleInfo, text: str | None = None) -> list[bool]:
        """Whether each test passes against the module ``info`` resolves.

        ``text`` is that module's printed source.  Given it, inside a
        :func:`~repro.analysis.canon.verdict_sharing` scope each verdict
        is computed once per (text, instance, expectation, target) and
        replayed after that: ARepair re-scores its current module every
        iteration, and every ICEBAR round reruns ARepair over the same
        candidates and tests."""
        if obs.get_metrics().enabled:
            obs.counter("aunit.evaluations").inc(len(self.tests))
        cache = shared_verdicts() if text is not None else None
        if cache is None:
            return [test.passes(info) for test in self.tests]
        known = cache.setdefault(("aunit", text), {})
        results = []
        hits = 0
        for test in self.tests:
            key = (test.instance, test.expect, test.target)
            verdict = known.get(key)
            if verdict is None:
                verdict = known[key] = test.passes(info)
            else:
                hits += 1
            results.append(verdict)
        if hits:
            obs.counter("shard.aunit_hits").inc(hits)
        return results

    def passing(self, info: ModuleInfo) -> list[AUnitTest]:
        return [test for test, ok in zip(self.tests, self.verdicts(info)) if ok]

    def failing(self, info: ModuleInfo, text: str | None = None) -> list[AUnitTest]:
        return [
            test
            for test, ok in zip(self.tests, self.verdicts(info, text))
            if not ok
        ]

    def all_pass(self, info: ModuleInfo) -> bool:
        return not self.failing(info)

    def score(self, info: ModuleInfo, text: str | None = None) -> float:
        """Fraction of tests passing (1.0 for an empty suite)."""
        if not self.tests:
            return 1.0
        return sum(self.verdicts(info, text)) / len(self.tests)

    def add(self, test: AUnitTest) -> None:
        self.tests.append(test)

    def merged_with(self, other: "TestSuite") -> "TestSuite":
        """A new suite with this suite's tests followed by unseen tests of
        ``other`` (deduplicated by valuation and expectation)."""
        seen = {(t.instance.canonical_key(), t.target, t.expect) for t in self.tests}
        merged = list(self.tests)
        for test in other.tests:
            key = (test.instance.canonical_key(), test.target, test.expect)
            if key not in seen:
                merged.append(test)
                seen.add(key)
        return TestSuite(tests=merged)
