"""Semantic canonicalization and oracle-level candidate deduplication.

The contract under test mirrors the incremental session's: replaying a
cached verdict for a canonically-equal candidate must never change any
outcome — verdicts and matrix payloads are identical to a reference arm
that solves every candidate.  That arm is set up here by patching
``repro.repair.base.canonical_key`` to return ``None``, the oracle's "no
usable key" answer.

Dedup stays on under a chaos scope, so drills exercise the path
production runs.  Fault sites fire per solver invocation, so the chaos
contract is determinism instead: the same plan, salt and candidate
stream give the same verdicts and the same fault events.
"""

import json
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from unittest import mock

import pytest

from repro import chaos, obs
from repro.alloy.parser import parse_module
from repro.alloy.resolver import resolve_module
from repro.analysis import (
    CandidateFilter,
    canonical_key,
    canonical_text,
    verdict_sharing,
)
from repro.chaos.plan import FaultPlan, SiteConfig
from repro.experiments.runner import RunConfig, run_matrix
from repro.repair import base
from repro.repair.base import PropertyOracle, RepairTask
from repro.repair.mutation import Mutator

from .conftest import FAULTY_LINKED_LIST_SPEC, MARRIAGE_SPEC

BASE = """
sig Node { next: lone Node }
fact acyclic { all n: Node | n not in n.^next }
pred nonEmpty { some Node }
run nonEmpty for 3
"""

ALPHA_VARIANT = BASE.replace("all n: Node | n not in n.^next",
                             "all m: Node | m not in m.^next")

COMMUTED_VARIANT = """
sig Node { next: lone Node }
fact acyclic { all n: Node | n not in n.^next }
pred nonEmpty { some Node }
run nonEmpty for 3
""".replace("some Node", "some Node or some Node")

DOUBLE_NEG_VARIANT = BASE.replace(
    "n not in n.^next", "not not (n not in n.^next)"
)

DIFFERENT = BASE.replace("lone Node", "set Node")


def _no_key(module, info=None):
    return None


def _no_dedup_arm(monkeypatch) -> None:
    """From here on, every oracle in the test solves every candidate."""
    monkeypatch.setattr(base, "canonical_key", _no_key)


def canon(source):
    module = parse_module(source)
    return canonical_text(module, resolve_module(module))


class TestCanonicalText:
    def test_alpha_renaming_is_invisible(self):
        assert canon(BASE) == canon(ALPHA_VARIANT)

    def test_double_negation_folds(self):
        assert canon(BASE) == canon(DOUBLE_NEG_VARIANT)

    def test_idempotent_disjunction_folds(self):
        assert canon(BASE) == canon(COMMUTED_VARIANT)

    def test_commuted_conjuncts_agree(self):
        a = "sig S {}\npred p { some S and no S }\nrun p for 3\n"
        b = "sig S {}\npred p { no S and some S }\nrun p for 3\n"
        assert canon(a) == canon(b)

    def test_different_specs_differ(self):
        assert canon(BASE) != canon(DIFFERENT)

    def test_key_is_stable_hash(self):
        module = parse_module(BASE)
        info = resolve_module(module)
        first = canonical_key(module, info)
        second = canonical_key(module, info)
        assert first == second
        assert isinstance(first, str) and len(first) == 64

    def test_keys_of_equal_specs_collide(self):
        a = parse_module(BASE)
        b = parse_module(ALPHA_VARIANT)
        assert canonical_key(a, resolve_module(a)) == canonical_key(
            b, resolve_module(b)
        )


class TestOracleDedup:
    def test_replay_counts_query_but_not_solve(self):
        task = RepairTask.from_source(BASE)
        oracle = PropertyOracle(task)
        first = oracle.evaluate_module(parse_module(BASE))
        second = oracle.evaluate_module(parse_module(ALPHA_VARIANT))
        assert first == second
        assert oracle.queries == 2
        assert oracle.solver_checks == 1

    def test_replay_records_dedup_hit(self):
        task = RepairTask.from_source(BASE)
        registry = obs.MetricsRegistry()
        with obs.scope(obs.Tracer(), registry):
            oracle = PropertyOracle(task)
            oracle.evaluate_module(parse_module(BASE))
            oracle.evaluate_module(parse_module(BASE))
        counters = registry.snapshot()["counters"]
        assert sum(
            value for key, value in counters.items()
            if key.startswith("analysis.dedup_hits")
        ) == 1

    def test_ablation_solves_every_candidate(self, monkeypatch):
        _no_dedup_arm(monkeypatch)
        task = RepairTask.from_source(BASE)
        oracle = PropertyOracle(task)
        oracle.evaluate_module(parse_module(BASE))
        oracle.evaluate_module(parse_module(BASE))
        assert oracle.queries == 2
        assert oracle.solver_checks == 2

    def test_chaos_scope_keeps_replay(self):
        # Drills run the production path: a chaos scope does not turn
        # dedup off.
        task = RepairTask.from_source(BASE)
        plan = FaultPlan(seed=3, sites={})
        with chaos.install(plan, salt="t"):
            oracle = PropertyOracle(task)
            oracle.evaluate_module(parse_module(BASE))
            oracle.evaluate_module(parse_module(BASE))
        assert oracle.queries == 2
        assert oracle.solver_checks == 1


class TestVerdictSharing:
    """The shard-scoped cache: oracles of distinct tools replay each
    other's verdicts and evidence for the same task, and distinct tasks
    never collide."""

    def test_second_oracle_replays_verdict(self):
        task = RepairTask.from_source(BASE)
        with verdict_sharing():
            first = PropertyOracle(task)
            second = PropertyOracle(task)
            a = first.evaluate_module(parse_module(BASE))
            b = second.evaluate_module(parse_module(ALPHA_VARIANT))
        assert a == b
        assert first.solver_checks == 1
        assert second.solver_checks == 0
        assert second.queries == 1

    def test_without_scope_oracles_solve_independently(self):
        task = RepairTask.from_source(BASE)
        first = PropertyOracle(task)
        second = PropertyOracle(task)
        first.evaluate_module(parse_module(BASE))
        second.evaluate_module(parse_module(BASE))
        assert first.solver_checks == 1
        assert second.solver_checks == 1

    def test_distinct_tasks_do_not_collide(self):
        # Same candidate, different tasks (the commands and expectations
        # differ with the task source) must not share verdicts.
        with verdict_sharing():
            one = PropertyOracle(RepairTask.from_source(BASE))
            other = PropertyOracle(RepairTask.from_source(DIFFERENT))
            one.evaluate_module(parse_module(BASE))
            other.evaluate_module(parse_module(BASE))
        assert one.solver_checks == 1
        assert other.solver_checks == 1

    def test_evidence_replays_across_oracles(self):
        task = RepairTask.from_source(FAULTY_LINKED_LIST_SPEC)
        with verdict_sharing():
            first = PropertyOracle(task)
            second = PropertyOracle(task)
            original = first.failing_evidence_by_command(task.module)
            replayed = second.failing_evidence_by_command(task.module)
        assert first.queries > 0
        # Byte-identical budget traversal: the replay advances queries by
        # exactly the per-command count of the original run.
        assert second.queries == first.queries
        assert replayed == original

    def test_evidence_replay_counts_dedup_hits(self):
        task = RepairTask.from_source(FAULTY_LINKED_LIST_SPEC)
        registry = obs.MetricsRegistry()
        with obs.scope(obs.Tracer(), registry), verdict_sharing():
            PropertyOracle(task).failing_evidence_by_command(task.module)
            replayer = PropertyOracle(task)
            replayer.failing_evidence_by_command(task.module)
        counters = registry.snapshot()["counters"]
        assert sum(
            value for key, value in counters.items()
            if key.startswith("analysis.dedup_hits")
        ) == replayer.queries

    def test_ablation_disables_sharing(self, monkeypatch):
        _no_dedup_arm(monkeypatch)
        task = RepairTask.from_source(BASE)
        with verdict_sharing():
            first = PropertyOracle(task)
            second = PropertyOracle(task)
            first.evaluate_module(parse_module(BASE))
            second.evaluate_module(parse_module(BASE))
        assert first.solver_checks == 1
        assert second.solver_checks == 1

    def test_scope_nests_and_restores(self):
        from repro.analysis.canon import shared_verdicts

        assert shared_verdicts() is None
        with verdict_sharing():
            outer = shared_verdicts()
            assert outer == {}
            with verdict_sharing():
                assert shared_verdicts() is not outer
            assert shared_verdicts() is outer
        assert shared_verdicts() is None


def _verdicts(source, dedup=True):
    """(ok, [sat...]) per mutant through one PropertyOracle; with
    ``dedup=False`` every mutant reaches the solver."""
    task = RepairTask.from_source(source)
    mutants = [m.module for m in Mutator(task.module, task.info).all_mutants()]
    assert mutants, "mutation produced no candidates"
    out = []
    arm = nullcontext() if dedup else mock.patch.object(
        base, "canonical_key", _no_key
    )
    with arm:
        oracle = PropertyOracle(task)
        for module in mutants:
            ok, results = oracle.evaluate_module(module)
            out.append((ok, [r.sat for r in results]))
    return out


class TestVerdictEquivalence:
    """Canonically-equal candidates get identical verdicts: dedup on and
    off must agree candidate-by-candidate, in every executor; under a
    chaos plan, same-seed runs agree with each other."""

    @pytest.mark.parametrize("source", [FAULTY_LINKED_LIST_SPEC, MARRIAGE_SPEC])
    def test_mutant_stream_matches_ablation(self, source):
        assert _verdicts(source) == _verdicts(source, dedup=False)

    def test_thread_workers_agree(self):
        # The patch is process-wide, so the reference runs first and two
        # deduplicating workers then race each other.
        scratch = _verdicts(FAULTY_LINKED_LIST_SPEC, dedup=False)
        with ThreadPoolExecutor(max_workers=2) as pool:
            workers = [
                pool.submit(_verdicts, FAULTY_LINKED_LIST_SPEC)
                for _ in range(2)
            ]
            assert [w.result() for w in workers] == [scratch, scratch]

    def test_process_workers_agree(self):
        with ProcessPoolExecutor(max_workers=2) as pool:
            deduped = pool.submit(_verdicts, MARRIAGE_SPEC)
            scratch = pool.submit(_verdicts, MARRIAGE_SPEC, False)
            assert deduped.result(timeout=120) == scratch.result(timeout=120)

    def test_chaos_schedule_is_deterministic_with_dedup(self):
        plan = FaultPlan(
            seed=7, sites={"sat.budget": SiteConfig(probability=0.3)}
        )
        task = RepairTask.from_source(FAULTY_LINKED_LIST_SPEC)
        mutants = [
            m.module for m in Mutator(task.module, task.info).all_mutants()
        ]
        streams = []
        events = []
        checks = []
        for _ in range(2):
            with chaos.install(plan, salt="x") as scope:
                oracle = PropertyOracle(task)
                stream = []
                for module in mutants:
                    ok, results = oracle.evaluate_module(module)
                    stream.append((ok, [r.sat for r in results]))
                streams.append(stream)
                events.append([e.to_json() for e in scope.events])
                checks.append(oracle.solver_checks)
        assert streams[0] == streams[1]
        assert events[0] == events[1]
        assert events[0], "the plan never fired: the test proves nothing"
        # Dedup ran: some mutants replayed instead of reaching the solver.
        assert checks[0] == checks[1] < len(mutants)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def _payload_bytes(matrix) -> bytes:
    payload = {
        spec_id: {
            technique: (o.rep, round(o.tm, 9), round(o.sm, 9), o.status)
            for technique, o in sorted(row.items())
        }
        for spec_id, row in sorted(matrix.outcomes.items())
    }
    return json.dumps(payload, sort_keys=True).encode()


def _run(**overrides):
    settings = dict(
        benchmark="arepair",
        scale=0.2,
        techniques=("BeAFix", "ATR"),
        use_cache=False,
    )
    settings.update(overrides)
    return run_matrix(RunConfig(**settings))


class TestMatrixEquivalence:
    def test_canon_matches_ablation_bytes(self, isolated_cache, monkeypatch):
        deduped = _run()
        _no_dedup_arm(monkeypatch)
        assert _payload_bytes(deduped) == _payload_bytes(_run())

    def test_ablation_shares_the_result_cache(self, isolated_cache, monkeypatch):
        # The cache key carries no dedup bit: a no-dedup rerun of a
        # cached matrix is served from the same file.
        first = _run(use_cache=True)
        _no_dedup_arm(monkeypatch)
        second = _run(use_cache=True)
        assert _payload_bytes(first) == _payload_bytes(second)
        assert second.telemetry is None


class TestBaselineMemo:
    def test_same_module_reuses_baseline_lint(self):
        module = parse_module(BASE)
        info = resolve_module(module)
        registry = obs.MetricsRegistry()
        with obs.scope(obs.Tracer(), registry):
            CandidateFilter(module, info)
            CandidateFilter(module, info)
        counters = registry.snapshot()["counters"]
        assert counters.get("analysis.baseline_lint_reuse") == 1

    def test_distinct_modules_do_not_collide(self):
        first = parse_module(BASE)
        second = parse_module(DIFFERENT)
        registry = obs.MetricsRegistry()
        with obs.scope(obs.Tracer(), registry):
            CandidateFilter(first, resolve_module(first))
            CandidateFilter(second, resolve_module(second))
        counters = registry.snapshot()["counters"]
        assert "analysis.baseline_lint_reuse" not in counters
