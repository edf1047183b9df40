"""Static pruning of repair candidates.

A candidate patch that *introduces* a statically provable infeasibility —
a fact set with no instances under any scope, a relation declared over an
empty domain, a cardinality constraint the interval bounds refute — is a
semantic dead end the search gains nothing by solving.
:class:`CandidateFilter` diffs a candidate's lint findings against the
original module's and vetoes candidates whose *new* findings come from
pruning-eligible rules (:attr:`~repro.analysis.diagnostics.Rule.prunes`,
the A5xx cardinality family).  Merely *dead* constructs (A2xx/A3xx: empty
joins, vacuous quantifiers, tautologies) are reported but never veto — a
passing repair can carry one in an unrelated paragraph, and vetoing it
could discard the very candidate an unfiltered search would select.

The diff is keyed on :meth:`Diagnostic.key`, which ignores source positions:
mutations shift line numbers without changing meanings, and pre-existing
findings in the faulty spec must never veto its own repair.

ARepair, BeAFix and ATR always build a filter.  Fault injection and the
mock LLM build their :class:`~repro.repair.mutation.Mutator` without one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.alloy.nodes import Module
from repro.alloy.resolver import ModuleInfo, resolve_module
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.lint import lint_module

_BASELINE_MEMO = threading.local()

_BASELINE_MEMO_LIMIT = 256
"""Cap on the per-thread baseline memo (entries pin module ASTs)."""


class CandidateFilter:
    """Vetoes repair candidates that introduce dead semantics.

    One filter is built per faulty module (its baseline findings are computed
    once) and consulted for every candidate the generators produce.
    """

    def __init__(
        self,
        module: Module,
        info: ModuleInfo | None = None,
        *,
        rules: frozenset[str] | None = None,
    ) -> None:
        if info is None:
            info = resolve_module(module)
        self._baseline = _baseline_findings(module, info, rules)

    def veto(
        self, candidate: Module, info: ModuleInfo | None = None
    ) -> Diagnostic | None:
        """The first *new* prunable finding in ``candidate``, else ``None``.

        Lint failures never veto — a candidate the lint engine cannot
        process falls through to the dynamic pipeline, which is the layer
        equipped to report it.
        """
        try:
            findings = lint_module(candidate, info)
        except Exception:
            return None
        for diagnostic in findings:
            if not diagnostic.rule.prunes:
                continue
            if diagnostic.key() in self._baseline:
                continue
            return diagnostic
        return None


def _baseline_findings(
    module: Module, info: ModuleInfo, rules: frozenset[str] | None
) -> frozenset[tuple[str, str, str]]:
    """The module's own lint findings, memoized per (module identity,
    rule-set).

    ICEBAR drives several inner tools over the same task module, and
    each builds its own :class:`CandidateFilter`; the memo
    makes every build after the first free and counts the reuse under
    ``analysis.baseline_lint_reuse``.
    """
    memo = getattr(_BASELINE_MEMO, "entries", None)
    if memo is None:
        memo = _BASELINE_MEMO.entries = OrderedDict()
    key = (id(module), rules)
    entry = memo.get(key)
    if entry is not None and entry[0] is module:
        memo.move_to_end(key)
        from repro import obs

        obs.counter("analysis.baseline_lint_reuse").inc()
        return entry[1]
    findings = lint_module(
        module, info, rules=set(rules) if rules is not None else None
    )
    baseline = frozenset(d.key() for d in findings)
    memo[key] = (module, baseline)
    if len(memo) > _BASELINE_MEMO_LIMIT:
        memo.popitem(last=False)
    return baseline


def record_pruned(diagnostic: Diagnostic) -> None:
    """Count one statically vetoed candidate under ``analysis.pruned_typed``.

    The ``rule`` label carries the winning rule name; the ambient technique
    label (installed by :class:`repro.repair.base.RepairTool`) attributes
    the count to BeAFix/ATR/… in traces and ``repro profile``.
    """
    from repro import obs

    obs.counter("analysis.pruned_typed", rule=diagnostic.rule.name).inc()
