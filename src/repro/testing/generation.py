"""Test-suite generation from a reference (oracle) specification.

In the study's setting, AUnit suites for the ARepair benchmark were written
by the tool authors against the intended semantics.  We regenerate that
setup mechanically: instances satisfying the *oracle* specification's facts
become positive tests; near-miss instances violating them become negative
tests.  The suite's size and diversity control how much ARepair can overfit,
which is exactly the failure mode the paper attributes to it.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Iterator

from repro import obs
from repro.alloy.nodes import Block, Command, FactDecl, Module, Not
from repro.alloy.pretty import print_module
from repro.analysis.canon import shared_verdicts
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.instance import Instance
from repro.testing.aunit import FACTS_TARGET, AUnitTest, TestSuite


def generate_suite(
    oracle: Analyzer,
    scope: int = 3,
    positives: int = 4,
    negatives: int = 4,
    seed: int = 0,
) -> TestSuite:
    """Build an AUnit suite from an oracle specification.

    Positive tests are instances of the oracle's facts; negative tests are
    instances of their negation (valuations the oracle rejects).  Both kinds
    are sampled deterministically from the analyzer's enumeration order,
    shuffled by ``seed`` so different suites stress different corners.
    """
    rng = random.Random(seed)
    tests: list[AUnitTest] = []

    sat_command = Command(kind="run", block=Block(), default_scope=scope)
    found_positive = _sample_instances(oracle, sat_command, positives * 3, rng)
    for index, instance in enumerate(found_positive[:positives]):
        tests.append(
            AUnitTest(
                name=f"pos{index}",
                instance=instance,
                expect=True,
                target=FACTS_TARGET,
            )
        )

    # Negative tests: valuations that violate at least one fact.  We solve
    # for "not (all facts)" with no facts asserted, by checking the block of
    # facts as a pseudo-assertion.
    fact_formulas = [f for fact in oracle.info.facts for f in fact.body.formulas]
    if fact_formulas:
        neg_command = Command(
            kind="run",
            block=Block(formulas=[Not(operand=Block(formulas=fact_formulas))]),
            default_scope=scope,
        )
        found_negative = _sample_negative_instances(
            oracle, neg_command, negatives * 3, rng
        )
        for index, instance in enumerate(found_negative[:negatives]):
            tests.append(
                AUnitTest(
                    name=f"neg{index}",
                    instance=instance,
                    expect=False,
                    target=FACTS_TARGET,
                )
            )

    rng.shuffle(tests)
    return TestSuite(tests=tests)


def _sample_instances(
    analyzer: Analyzer, command: Command, limit: int, rng: random.Random
) -> list[Instance]:
    instances = _enumerate(
        ("pos", command.default_scope, analyzer.conflict_limit),
        analyzer.module,
        lambda: analyzer.solutions(command),
        limit,
        shareable=analyzer.budget is None,
    )
    rng.shuffle(instances)
    return instances


def _sample_negative_instances(
    analyzer: Analyzer, command: Command, limit: int, rng: random.Random
) -> list[Instance]:
    """Instances violating the oracle's facts.

    The command's block already encodes the negation; facts are *not*
    asserted during this solve because :meth:`Analyzer.solutions` always
    asserts them — so we solve on a shadow module without facts.
    """
    module = analyzer.module

    def solutions() -> Iterator[Instance]:
        shadow = Analyzer(
            dataclasses.replace(
                module,
                paragraphs=[
                    p for p in module.paragraphs if not isinstance(p, FactDecl)
                ],
            )
        )
        return shadow.solutions(command)

    instances = _enumerate(("neg", command.default_scope), module, solutions, limit)
    rng.shuffle(instances)
    return instances


def _enumerate(
    kind: tuple,
    module: Module,
    solutions: Callable[[], Iterator[Instance]],
    limit: int,
    shareable: bool = True,
) -> list[Instance]:
    """The first ``limit`` instances of ``solutions()`` (at least one when
    any exists: the draw stops only after reaching the limit).

    Inside a :func:`~repro.analysis.canon.verdict_sharing` scope one
    enumeration per (``kind``, printed ``module``) is drawn lazily and
    served by prefix: ARepair's suite takes the first instances and
    ICEBAR's larger suite resumes the same solver where ARepair stopped,
    so each receives exactly what a fresh enumeration returns.  A draw
    that raises is dropped, so the next caller starts over, as it would
    without the scope."""
    cache = shared_verdicts() if shareable else None
    if cache is None:
        return _Enumeration(solutions()).take(limit)
    key = ("suite", *kind, print_module(module))
    enumeration = cache.get(key)
    if enumeration is None:
        enumeration = cache[key] = _Enumeration(solutions())
    else:
        obs.counter("shard.suite_hits").inc()
    try:
        return enumeration.take(limit)
    except BaseException:
        cache.pop(key, None)
        raise


class _Enumeration:
    """A suspended enumeration and the instances it has yielded so far."""

    def __init__(self, solutions: Iterator[Instance]) -> None:
        self._solutions = solutions
        self._drawn: list[Instance] = []
        self._exhausted = False

    def take(self, limit: int) -> list[Instance]:
        limit = max(limit, 1)
        while not self._exhausted and len(self._drawn) < limit:
            instance = next(self._solutions, None)
            if instance is None:
                self._exhausted = True
            else:
                self._drawn.append(instance)
        return self._drawn[:limit]


def counterexample_test(instance: Instance, name: str) -> AUnitTest:
    """Wrap an analyzer counterexample as a failing-expectation test.

    This is the test ICEBAR derives from each counterexample: the valuation
    must *not* satisfy the repaired specification's facts."""
    return AUnitTest(name=name, instance=instance, expect=False, target=FACTS_TARGET)


def witness_test(instance: Instance, name: str) -> AUnitTest:
    """Wrap a satisfying instance as a passing-expectation test."""
    return AUnitTest(name=name, instance=instance, expect=True, target=FACTS_TARGET)
