"""The bounded model finder: this repository's stand-in for Alloy Analyzer 4.2.

Given a module, the :class:`Analyzer` executes ``run`` and ``check`` commands
by grounding the relational problem to CNF (via :mod:`repro.analyzer.translate`)
and solving with the CDCL engine.  It can enumerate multiple instances or
counterexamples — the capability ICEBAR and the multi-round LLM feedback
loop rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro import chaos, obs
from repro.alloy.errors import AlloyError, AnalysisBudgetError, EvaluationError
from repro.alloy.nodes import Block, Command, Formula, Module, Not, PredCall
from repro.alloy.parser import parse_module
from repro.alloy.resolver import ModuleInfo, resolve_module
from repro.analyzer.instance import Instance
from repro.analyzer.semantics import field_constraints
from repro.analyzer.translate import Translator
from repro.analyzer.universe import Bounds
from repro.runtime.budget import Budget
from repro.runtime.errors import BudgetExhaustedError
from repro.sat.circuit import CircuitBuilder
from repro.sat.solver import BudgetExceeded, SatSolver

DEFAULT_CONFLICT_LIMIT = 20_000
"""Per-solve conflict budget: the deterministic analogue of the Analyzer's
wall-clock timeout.  Benchmark-sized problems finish in well under 1,000
conflicts; pathological mutants are cut off instead of hanging a run."""


@dataclass
class CommandResult:
    """Outcome of executing one command."""

    command: Command
    name: str
    kind: str  # "run" or "check"
    sat: bool
    instances: list[Instance] = field(default_factory=list)
    solve_time: float = 0.0
    truncated: bool = False
    """Enumeration stopped early on a budget overrun; the instances listed
    are valid but possibly incomplete."""

    @property
    def instance(self) -> Instance | None:
        """The first instance (model or counterexample), if any."""
        return self.instances[0] if self.instances else None

    @property
    def passed(self) -> bool:
        """For checks: no counterexample.  For runs: an instance exists."""
        if self.kind == "check":
            return not self.sat
        return self.sat

    @property
    def meets_expectation(self) -> bool:
        """Whether the result matches the command's ``expect`` annotation."""
        if self.command.expect is None:
            return True
        return self.sat == (self.command.expect == 1)


class Analyzer:
    """Executes commands of one resolved module."""

    def __init__(
        self,
        module: Module | str,
        conflict_limit: int | None = DEFAULT_CONFLICT_LIMIT,
        budget: Budget | None = None,
    ) -> None:
        if isinstance(module, str):
            module = parse_module(module)
        self.module = module
        self.info: ModuleInfo = resolve_module(module)
        self._conflict_limit = conflict_limit
        self._budget = budget
        """Optional session-wide budget, charged one step per solver call.
        Lets a caller bound a whole analysis session (many commands, many
        enumerated instances) rather than a single solve."""

    @property
    def conflict_limit(self) -> int | None:
        return self._conflict_limit

    @property
    def budget(self) -> Budget | None:
        return self._budget

    # -- command execution ------------------------------------------------------

    def execute_all(self, max_instances: int = 1) -> list[CommandResult]:
        """Run every command in declaration order."""
        return [
            self.run_command(command, max_instances=max_instances)
            for command in self.info.commands
        ]

    def run_command(self, command: Command, max_instances: int = 1) -> CommandResult:
        """Execute a single command, returning its result and instances."""
        start = time.perf_counter()
        instances: list[Instance] = []
        truncated = False
        name = command.target or f"{command.kind}#anonymous"
        with obs.span("analyzer.command", command=name, kind=command.kind) as span:
            try:
                for instance in self.solutions(command):
                    instances.append(instance)
                    if len(instances) >= max_instances:
                        break
            except AnalysisBudgetError:
                # A budget overrun part-way through enumeration does not void
                # the instances already found: the SAT answer stands, only the
                # enumeration is incomplete.  With zero instances we cannot
                # distinguish UNSAT from "ran out of budget", so re-raise.
                if not instances:
                    raise
                truncated = True
            metrics = obs.get_metrics()
            if metrics.enabled:
                obs.counter("analyzer.commands").inc()
                obs.counter("analyzer.instances").inc(len(instances))
            span.set(sat=bool(instances), instances=len(instances))
        elapsed = time.perf_counter() - start
        return CommandResult(
            command=command,
            name=name,
            kind=command.kind,
            sat=bool(instances),
            instances=instances,
            solve_time=elapsed,
            truncated=truncated,
        )

    def solutions(
        self,
        command: Command,
        extra_formulas: list[Formula] | None = None,
    ) -> Iterator[Instance]:
        """Yield instances (run) or counterexamples (check) for a command.

        ``extra_formulas`` are conjoined with the problem — used by repair
        tools to inject test valuations or blocking constraints.
        """
        solver = SatSolver()
        builder = CircuitBuilder(solver)
        bounds = Bounds(self.info, command, builder)
        translator = Translator(self.info, bounds)

        for formula in field_constraints(self.info):
            builder.assert_true(translator.formula(formula))
        for fact in self.info.facts:
            builder.assert_true(translator.formula(fact.body))
        builder.assert_true(self._target_handle(command, translator))
        for formula in extra_formulas or []:
            builder.assert_true(translator.formula(formula))

        if chaos.fire("analyzer.explode", clauses=solver.num_clauses) is not None:
            # Injected grounding blow-up: behaves exactly like a problem
            # whose CNF outgrew the session budget — the partial-result /
            # degradation paths downstream must absorb it.
            raise AnalysisBudgetError(
                "chaos: translation exploded past the clause budget "
                f"({solver.num_clauses} clauses grounded)"
            )

        metrics = obs.get_metrics()
        if metrics.enabled:
            # Translation size: how big a CNF this command grounded to.
            obs.histogram("analyzer.translation_vars").observe(solver.num_vars)
            obs.histogram("analyzer.translation_clauses").observe(
                solver.num_clauses
            )
            # Peak gauges: the largest grounding of the run (gauges merge
            # across shards as max, so the run-level value is the true peak).
            peak_vars = obs.gauge("analyzer.peak_vars")
            peak_vars.set(max(peak_vars.value, solver.num_vars))
            peak_clauses = obs.gauge("analyzer.peak_clauses")
            peak_clauses.set(max(peak_clauses.value, solver.num_clauses))

        primary = bounds.primary_handles()
        while self._solve_within_budget(solver):
            true_vars = solver.model()
            true_lits = set(true_vars)
            instance_relations = {
                name: frozenset(
                    tup
                    for tup, handle in handles.items()
                    if builder.evaluate(handle, true_lits)
                )
                for name, handles in primary.items()
            }
            yield Instance(relations=instance_relations)
            blocking = self._blocking_clause(builder, primary, true_lits)
            if blocking is None:
                return  # every primary handle is constant: unique instance
            solver.add_clause(blocking)

    def _solve_within_budget(self, solver: SatSolver) -> bool:
        if obs.get_metrics().enabled:
            obs.counter("analyzer.solve_calls").inc()
        if self._budget is not None:
            try:
                self._budget.charge(1, what="solver call")
            except BudgetExhaustedError as error:
                raise AnalysisBudgetError(str(error)) from error
        try:
            return solver.solve(conflict_limit=self._conflict_limit)
        except BudgetExceeded as error:
            raise AnalysisBudgetError(str(error)) from error

    def _target_handle(self, command: Command, translator: Translator) -> int:
        if command.kind == "run":
            if command.target is not None:
                target: Formula = PredCall(name=command.target, args=[])
            else:
                target = command.block or Block()
            return translator.formula(target)
        if command.target is not None:
            assertion = self.info.asserts.get(command.target)
            if assertion is None:
                raise EvaluationError(
                    f"unknown assertion {command.target!r}", command.pos
                )
            body: Formula = assertion.body
        else:
            body = command.block or Block()
        return translator.formula(Not(operand=body))

    @staticmethod
    def _blocking_clause(
        builder: CircuitBuilder,
        primary: dict[str, dict[tuple[str, ...], int]],
        true_lits: set[int],
    ) -> list[int] | None:
        clause: list[int] = []
        for handles in primary.values():
            for handle in handles.values():
                if handle in (1, -1):  # TRUE / FALSE constants
                    continue
                lit = builder.to_literal(handle)
                clause.append(-lit if lit in true_lits else lit)
        return clause or None

    # -- convenience oracles ------------------------------------------------------

    def check_assertion(
        self, name: str, scope: int = 3, max_counterexamples: int = 1
    ) -> CommandResult:
        """Check a named assertion under a default scope."""
        command = Command(kind="check", target=name, default_scope=scope)
        return self.run_command(command, max_instances=max_counterexamples)

    def run_pred(
        self, name: str, scope: int = 3, max_instances: int = 1
    ) -> CommandResult:
        """Run a named predicate under a default scope."""
        command = Command(kind="run", target=name, default_scope=scope)
        return self.run_command(command, max_instances=max_instances)

    def is_consistent(self, scope: int = 3) -> bool:
        """Whether the facts admit any instance at the given scope."""
        command = Command(kind="run", block=Block(), default_scope=scope)
        return self.run_command(command).sat


def analyze_source(source: str, max_instances: int = 1) -> list[CommandResult]:
    """Parse, resolve, and execute every command of a specification."""
    return Analyzer(source).execute_all(max_instances=max_instances)


def try_analyze(source: str) -> tuple[list[CommandResult] | None, str | None]:
    """Like :func:`analyze_source` but returns ``(results, error_message)``.

    Repair pipelines use this to classify candidate specs that fail to
    compile without unwinding their search loops.
    """
    try:
        return analyze_source(source), None
    except AlloyError as error:
        return None, str(error)
    except RecursionError:
        return None, "specification too deeply nested to analyze"
