"""Record the solver trajectory that ``test_sat_trajectory.py`` pins.

For every command of every corpus model this records what the from-scratch
analyzer hands the SAT solver and what the solver does with it: variable and
clause counts, digests of the attached clause lists (literal order included)
and of the watch lists, the per-call ``last_solve`` counters, and a digest of
the first three enumerated instances.  One :class:`OracleSession` case over
a fixed stream of mutant texts (recorded in the fixture, so the case does
not depend on the mutation operators) adds the verdicts and the
reused-clause counter of the incremental path.

Any change to CNF emission, variable numbering, propagation order or the
decision heuristic moves at least one digest, so a pure speed-up of those
paths must leave the fixture untouched.  Regenerate it only when a change
is *meant* to alter the search:

    PYTHONPATH=src python -m tests.make_sat_trajectory
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro import obs
from repro.alloy.errors import AlloyError
from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.analyzer import analyzer as analyzer_module
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.session import OracleSession
from repro.benchmarks.models import all_models
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.repair.base import RepairTask
from repro.repair.mutation import Mutator
from repro.sat.solver import SatSolver

FIXTURE = Path(__file__).parent / "fixtures" / "sat_trajectory.json"

INSTANCES = 3
"""Instances enumerated per command (each one re-solves after a blocking
clause, so later solves exercise incremental clause addition)."""

SESSION_MODEL = "dll"
SESSION_MUTANTS = 100
"""The OracleSession case: the first mutants of one corpus model, as
recorded at regeneration time."""


def _digest(value: object) -> str:
    return hashlib.sha256(
        json.dumps(value, separators=(",", ":")).encode()
    ).hexdigest()


def _clause_digest(solver: SatSolver) -> str:
    return _digest(solver._clauses)


def _watch_digest(solver: SatSolver) -> str:
    return _digest(sorted(solver._watches.items()))


class _RecordingSolver(SatSolver):
    """A solver that snapshots its problem before the first ``solve`` and
    its counters after every call."""

    created: list["_RecordingSolver"] = []

    def __init__(self) -> None:
        super().__init__()
        self.encoded: dict | None = None
        self.solves: list[list[int]] = []
        _RecordingSolver.created.append(self)

    def solve(self, assumptions=None, conflict_limit=None) -> bool:
        if self.encoded is None:
            self.encoded = {
                "num_vars": self.num_vars,
                "num_clauses": self.num_clauses,
                "clauses": _clause_digest(self),
                "watches": _watch_digest(self),
            }
        try:
            return super().solve(assumptions, conflict_limit)
        finally:
            s = self.last_solve
            self.solves.append(
                [s.decisions, s.conflicts, s.propagations,
                 s.learned_clauses, s.restarts]
            )


@contextmanager
def _recording() -> Iterator[None]:
    original = analyzer_module.SatSolver
    analyzer_module.SatSolver = _RecordingSolver
    _RecordingSolver.created = []
    try:
        yield
    finally:
        analyzer_module.SatSolver = original


def _instance_key(instance) -> list:
    return sorted(
        [name, sorted(list(t) for t in tuples)]
        for name, tuples in instance.relations.items()
    )


def command_trajectory(analyzer: Analyzer, command) -> dict:
    """The recorded trajectory of one command's first instances."""
    with _recording():
        instances = []
        try:
            for instance in analyzer.solutions(command):
                instances.append(_instance_key(instance))
                if len(instances) >= INSTANCES:
                    break
            outcome = "ok"
        except AlloyError as error:
            outcome = type(error).__name__
        (solver,) = _RecordingSolver.created
    record = dict(solver.encoded or {})
    record.update(
        outcome=outcome,
        solves=solver.solves,
        final_num_clauses=solver.num_clauses,
        final_clauses=_clause_digest(solver),
        final_watches=_watch_digest(solver),
        instances=len(instances),
        instance_digest=_digest(instances),
    )
    return record


def corpus_trajectories() -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for model in all_models():
        analyzer = Analyzer(model.source)
        out[model.name] = [
            command_trajectory(analyzer, command)
            for command in analyzer.info.commands
        ]
    return out


def session_mutants() -> list[str]:
    """The first mutants of one corpus model, printed as source text.

    Only regeneration calls this: the fixture keeps the texts, so the
    session case pins the solver, not the mutation operators' order."""
    task = RepairTask.from_source(_session_model().source)
    sources = []
    for mutant in Mutator(task.module, task.info).all_mutants():
        sources.append(print_module(mutant.module))
        if len(sources) >= SESSION_MUTANTS:
            break
    return sources


def session_trajectory(sources: list[str]) -> dict:
    """Verdicts and clause reuse of one OracleSession over ``sources``."""
    task = RepairTask.from_source(_session_model().source)
    session = OracleSession(task.info)
    metrics = MetricsRegistry()
    verdicts = []
    with obs.scope(NULL_TRACER, metrics):
        for source in sources:
            outcome = session.evaluate(parse_module(source))
            if outcome is None:
                verdicts.append(None)
                continue
            results, completed = outcome
            verdicts.append([completed, [r.sat for r in results]])
    counters = metrics.counter_values()
    return {
        "model": SESSION_MODEL,
        "verdicts": verdicts,
        "reused_clauses": counters.get("sat.session.reused_clauses", 0),
        "learned_clauses": counters.get("sat.learned_clauses", 0),
        "decisions": counters.get("sat.decisions", 0),
    }


def _session_model():
    (model,) = [m for m in all_models() if m.name == SESSION_MODEL]
    return model


def record() -> dict:
    sources = session_mutants()
    return {
        "corpus": corpus_trajectories(),
        "session": session_trajectory(sources),
        "session_mutants": sources,
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
