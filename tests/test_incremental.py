"""Incremental candidate solving: the SolveSession / OracleSession stack.

The contract under test is *bit-identical outcomes*: evaluating a stream of
repair candidates through the shared incremental session must produce the
same verdicts, the same matrix payloads, and the same chaos fault schedules
as the from-scratch path — only faster.  The from-scratch reference arm is
set up here by patching :meth:`PropertyOracle._ensure_session` to return
``None``, so every candidate goes through a fresh Analyzer.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.alloy.parser import parse_module
from repro.alloy.resolver import resolve_module
from repro.analyzer.session import OracleSession
from repro.chaos.plan import FaultPlan, SiteConfig
from repro.experiments.executor import ShardTask, execute_shard
from repro.experiments.runner import ResultMatrix, RunConfig, run_matrix
from repro.repair.base import PropertyOracle, RepairTask
from repro.repair.mutation import Mutator
from repro.sat.solver import SolveSession

from .conftest import FAULTY_LINKED_LIST_SPEC, MARRIAGE_SPEC


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


class TestSolveSession:
    """The assumption-based incremental layer over one SatSolver."""

    def test_selector_groups_activate_only_under_assumption(self):
        session = SolveSession()
        x = session.new_var()
        wants_true = session.new_selector()
        wants_false = session.new_selector()
        session.add_clause_under(wants_true, [x])
        session.add_clause_under(wants_false, [-x])

        assert session.solve([wants_true]) is True
        assert x in session.model()
        assert session.solve([wants_false]) is True
        assert x not in session.model()
        # Both groups at once are contradictory — but only under assumption.
        assert session.solve([wants_true, wants_false]) is False
        assert session.solve([]) is True

    def test_retired_group_is_permanently_satisfied(self):
        session = SolveSession()
        x = session.new_var()
        session.add_clause([x])
        poison = session.new_selector()
        session.add_clause_under(poison, [-x])
        assert session.solve([poison]) is False
        session.retire(poison)
        # The unit [-poison] disables the group at level 0; the remaining
        # permanent structure is satisfiable.  Retiring twice is a no-op.
        session.retire(poison)
        assert session.solve([]) is True
        assert x in session.model()

    def test_state_carries_across_solves(self):
        session = SolveSession()
        variables = [session.new_var() for _ in range(6)]
        for a, b in zip(variables, variables[1:]):
            session.add_clause([-a, b])
        selector = session.new_selector()
        session.add_clause_under(selector, [variables[0]])
        assert session.solve([selector]) is True
        assert all(v in session.model() for v in variables)
        assert session.solves == 1
        assert session.solve([selector, -variables[-1]]) is False
        assert session.solves == 2

    def test_num_selectors_counts_allocations(self):
        session = SolveSession()
        assert session.num_selectors == 0
        session.new_selector()
        session.new_selector()
        assert session.num_selectors == 2


def _scratch_arm(monkeypatch) -> None:
    """From here on, every oracle in the test solves from scratch."""
    monkeypatch.setattr(PropertyOracle, "_ensure_session", lambda self: None)


def _verdicts(task: RepairTask, modules):
    """(ok, [sat...]) per candidate through one PropertyOracle."""
    oracle = PropertyOracle(task)
    out = []
    for module in modules:
        ok, results = oracle.evaluate_module(module)
        out.append((ok, [r.sat for r in results]))
    return out


class TestOracleSessionEquivalence:
    """Session verdicts must equal from-scratch verdicts, candidate by
    candidate, including resolution failures and structural fallbacks."""

    @pytest.mark.parametrize("source", [FAULTY_LINKED_LIST_SPEC, MARRIAGE_SPEC])
    def test_mutant_stream_verdicts_match_scratch(self, source, monkeypatch):
        task = RepairTask.from_source(source)
        mutator = Mutator(task.module, task.info)
        mutants = [m.module for m in mutator.all_mutants()]
        assert mutants, "mutation produced no candidates"
        incremental_verdicts = _verdicts(task, mutants)
        _scratch_arm(monkeypatch)
        scratch_verdicts = _verdicts(task, mutants)
        assert incremental_verdicts == scratch_verdicts

    def test_structurally_divergent_candidate_returns_none(self):
        task = RepairTask.from_source(FAULTY_LINKED_LIST_SPEC)
        session = OracleSession(task.info)
        divergent = parse_module(
            FAULTY_LINKED_LIST_SPEC.replace("next: lone Node", "next: set Node")
        )
        assert session.evaluate(divergent) is None

    def test_unresolvable_candidate_fails_oracle(self):
        task = RepairTask.from_source(FAULTY_LINKED_LIST_SPEC)
        session = OracleSession(task.info)
        broken = parse_module(
            FAULTY_LINKED_LIST_SPEC.replace("n.next", "n.nonexistent")
        )
        assert session.evaluate(broken) == ([], False)

    def test_base_module_evaluates_like_analyzer(self, monkeypatch):
        task = RepairTask.from_source(MARRIAGE_SPEC)
        session = OracleSession(task.info)
        module = parse_module(MARRIAGE_SPEC)
        resolve_module(module)
        outcome = session.evaluate(module)
        assert outcome is not None
        results, completed = outcome
        assert completed is True
        _scratch_arm(monkeypatch)
        scratch = _verdicts(task, [module])
        assert [r.sat for r in results] == scratch[0][1]


def _payload_bytes(matrix) -> bytes:
    """The result content of a matrix as canonical bytes."""
    payload = {
        spec_id: {
            technique: (o.rep, round(o.tm, 9), round(o.sm, 9), o.status)
            for technique, o in sorted(row.items())
        }
        for spec_id, row in sorted(matrix.outcomes.items())
    }
    return json.dumps(payload, sort_keys=True).encode()


_TECHNIQUES = ("BeAFix", "ATR")


def _run(**overrides):
    config = RunConfig(
        benchmark="arepair",
        scale=0.2,
        techniques=_TECHNIQUES,
        use_cache=False,
        **overrides,
    )
    return run_matrix(config)


def _run_on_threads(reference, chaos=None):
    """Re-run ``reference``'s shards on a two-thread pool, the way the
    service daemon's workers run them; returns a matrix-shaped result."""
    shards = [
        ShardTask(spec=spec, techniques=_TECHNIQUES, seed=0, chaos=chaos)
        for spec in reference.specs
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(execute_shard, shards))
    matrix = ResultMatrix(
        benchmark=reference.benchmark,
        seed=reference.seed,
        scale=reference.scale,
        specs=reference.specs,
    )
    for result in results:
        matrix.outcomes[result.spec_id] = result.outcomes
        matrix.chaos_events.extend(result.chaos_events)
    return matrix


class TestMatrixEquivalence:
    """run_matrix payloads are byte-identical with the session on or off,
    serially, on pool threads and on the process pool, including under a
    chaos plan."""

    def test_incremental_matches_scratch_bytes(self, monkeypatch):
        incremental = _run()
        _scratch_arm(monkeypatch)
        assert _payload_bytes(incremental) == _payload_bytes(_run())

    def test_incremental_matches_across_executors(self):
        serial = _run()
        threaded = _run_on_threads(serial)
        assert _payload_bytes(serial) == _payload_bytes(threaded)

    def test_chaos_schedule_identical_across_executors(self):
        plan = FaultPlan(
            seed=7, sites={"sat.budget": SiteConfig(probability=0.3)}
        )
        serial = _run(chaos=plan)
        threaded = _run_on_threads(serial, chaos=plan)
        assert _payload_bytes(serial) == _payload_bytes(threaded)
        assert serial.chaos_events == threaded.chaos_events
        processed = _run(chaos=plan, jobs=2)
        assert _payload_bytes(serial) == _payload_bytes(processed)
        assert serial.chaos_events == processed.chaos_events


class TestProfile:
    """`repro profile` reports the candidate throughput the session moves."""

    def test_profile_renders_candidate_throughput(self):
        from repro import obs
        from repro.obs import NULL_TRACER, MetricsRegistry
        from repro.obs.export import render_profile, trace_data_from_snapshot

        registry = MetricsRegistry()
        with obs.scope(NULL_TRACER, registry):
            obs.counter("repair.candidates", technique="ATR").inc(120)
            obs.histogram("repair.seconds", technique="ATR").observe(2.0)
        rendered = render_profile(trace_data_from_snapshot(registry.snapshot()))
        assert "cand/s" in rendered
        assert "60.0" in rendered
