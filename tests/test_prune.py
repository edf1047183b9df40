"""Static candidate pruning: the filter and the mutator wiring.

The contract: pruning vetoes only statically *infeasible* candidates (the
A5xx cardinality family).  Heuristic dead-code findings must never veto,
or pruning could discard the very fix the unpruned search selects.  A
smoke run may legitimately prune nothing, so the contract is pinned here
at unit level rather than by a non-zero pruned total in a profile.
"""

from repro import obs
from repro.alloy.parser import parse_module
from repro.alloy.resolver import resolve_module
from repro.analysis import CandidateFilter
from repro.analysis.prune import record_pruned
from repro.repair.mutation import Mutator

FAULTY = """
sig A {}
sig B { f: set A }
pred p { some A.f }
run p for 3
"""

DEAD_CANDIDATE = """
sig A {}
sig B { f: set A }
pred p { some A.f }
pred q { some A & B }
run p for 3
run q for 3
"""
"""Introduces dead constructs (A202/A204) — reported, but NOT veto
grounds: a repair can carry a dead paragraph and still pass the oracle."""

INFEASIBLE_CANDIDATE = """
sig A {}
sig B { f: set A }
pred p { some B.f }
run p for 3
fact bogus { #A < 0 }
"""
"""Introduces a statically unsatisfiable fact (A501/A504): no instances
under any scope, so the candidate can never meet a run expectation."""

CLEAN = """
sig A {}
sig B { f: set A }
pred p { some B.f }
run p for 3
"""


def modinfo(source: str):
    module = parse_module(source)
    return module, resolve_module(module)


class TestCandidateFilter:
    def test_preexisting_findings_never_veto(self):
        module, info = modinfo(FAULTY)
        filt = CandidateFilter(module, info)
        # The baseline module itself (A201/A204 and all) passes untouched.
        assert filt.veto(module, info) is None

    def test_new_infeasibility_vetoes(self):
        module, info = modinfo(CLEAN)
        filt = CandidateFilter(module, info)
        candidate, candidate_info = modinfo(INFEASIBLE_CANDIDATE)
        diagnostic = filt.veto(candidate, candidate_info)
        assert diagnostic is not None
        assert diagnostic.rule.prunes
        assert diagnostic.code.startswith("A5")

    def test_new_dead_construct_does_not_veto(self):
        # A202/A204 findings are heuristic: the candidate might still be
        # the repair the oracle would select (observed on ARepair), so
        # they must never prune.
        module, info = modinfo(CLEAN)
        filt = CandidateFilter(module, info)
        candidate, candidate_info = modinfo(DEAD_CANDIDATE)
        assert filt.veto(candidate, candidate_info) is None

    def test_info_findings_never_veto(self):
        module, info = modinfo(CLEAN)
        filt = CandidateFilter(module, info)
        candidate, candidate_info = modinfo(
            CLEAN + "\nsig Orphan {}"  # A401 only: hygiene, not dead
        )
        assert filt.veto(candidate, candidate_info) is None

    def test_record_pruned_counts_by_rule(self):
        module, info = modinfo(CLEAN)
        filt = CandidateFilter(module, info)
        candidate, candidate_info = modinfo(INFEASIBLE_CANDIDATE)
        diagnostic = filt.veto(candidate, candidate_info)
        registry = obs.MetricsRegistry()
        with obs.scope(obs.Tracer(), registry):
            record_pruned(diagnostic)
        snapshot = registry.snapshot()
        key = f"analysis.pruned_typed{{rule={diagnostic.rule.name}}}"
        assert snapshot["counters"][key] == 1


class TestMutatorPruning:
    def test_pruned_stream_is_subset_of_unpruned(self):
        module, info = modinfo(CLEAN)
        unpruned = {
            m.description for m in Mutator(module, info).all_mutants()
        }
        pruned = {
            m.description
            for m in Mutator(module, info, prune=True).all_mutants()
        }
        assert pruned <= unpruned

    def test_pruned_mutants_introduce_no_new_dead_findings(self):
        module, info = modinfo(CLEAN)
        filt = CandidateFilter(module, info)
        for mutant in Mutator(module, info, prune=True).all_mutants():
            assert filt.veto(mutant.module) is None
