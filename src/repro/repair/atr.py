"""ATR: template-based repair guided by instance analysis (Zheng et al., ISSTA'22).

ATR repairs a specification with violated assertions in three phases:

1. **Evidence collection** — counterexamples of the failing commands, and
   *satisfying instances*: valuations that satisfy both the facts and the
   violated assertions (the analogue of ATR's PMaxSAT-derived instances).
2. **Localization + template instantiation** — suspicious locations are
   ranked by counterexample-flip localization; expression and formula
   templates are instantiated at each.
3. **Pruning + validation** — candidates must refute every counterexample
   and preserve every satisfying instance (fast evaluator checks) before the
   full property oracle (bounded analyzer) confirms them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alloy.errors import AlloyError
from repro.alloy.nodes import Block, Command
from repro.alloy.pretty import print_module
from repro.alloy.resolver import resolve_module
from repro.analysis.prune import CandidateFilter
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.evaluator import Evaluator
from repro.analyzer.instance import Instance
from repro.repair.base import (
    PropertyOracle,
    RepairResult,
    RepairStatus,
    RepairTask,
    RepairTool,
)
from repro.repair.localization import Discriminator, localize, verdict_matches
from repro.repair.templates import strengthening_candidates, template_candidates


@dataclass
class AtrConfig:
    """Tuning knobs for the template search."""

    max_locations: int = 12
    max_per_location: int = 140
    max_candidates: int = 800
    max_oracle_queries: int = 45
    satisfying_instances: int = 2


class Atr(RepairTool):
    """Template-based repair with counterexample/instance pruning."""

    name = "ATR"

    def __init__(self, config: AtrConfig | None = None) -> None:
        self._config = config or AtrConfig()

    def _repair(self, task: RepairTask) -> RepairResult:
        oracle = PropertyOracle(task)
        evidence = oracle.failing_evidence_by_command(task.module, max_instances=3)
        discriminators = [
            Discriminator.from_command_evidence(command, instance)
            for command, instances in evidence
            for instance in instances
        ]
        preservers = self._satisfying_instances(task, [c for c, _ in evidence])

        locations = localize(
            task.module,
            task.info,
            discriminators,
            max_locations=self._config.max_locations,
        )
        explored = 0
        pruned = 0
        candidate_filter = CandidateFilter(task.module, task.info)
        # Strengthening templates first: they directly target synthesis-class
        # faults (a dropped constraint) and the batch is small.
        for candidate, description in strengthening_candidates(
            task.module, task.info, candidate_filter=candidate_filter
        ):
            explored += 1
            if oracle.queries >= self._config.max_oracle_queries:
                break
            if not self._passes_pruning(candidate, discriminators, preservers):
                pruned += 1
                continue
            ok, _ = oracle.evaluate_module(candidate)
            if ok:
                return RepairResult(
                    status=RepairStatus.FIXED,
                    technique=self.name,
                    candidate=candidate,
                    candidate_source=print_module(candidate),
                    candidates_explored=explored,
                    oracle_queries=oracle.queries,
                    detail=f"template: {description} (pruned {pruned})",
                )
        for location in locations:
            for mutant in template_candidates(
                task.module,
                task.info,
                location.path,
                max_per_location=self._config.max_per_location,
                candidate_filter=candidate_filter,
            ):
                explored += 1
                if explored > self._config.max_candidates:
                    break
                if oracle.queries >= self._config.max_oracle_queries:
                    break
                if not self._passes_pruning(mutant.module, discriminators, preservers):
                    pruned += 1
                    continue
                ok, _ = oracle.evaluate_module(mutant.module)
                if ok:
                    return RepairResult(
                        status=RepairStatus.FIXED,
                        technique=self.name,
                        candidate=mutant.module,
                        candidate_source=print_module(mutant.module),
                        candidates_explored=explored,
                        oracle_queries=oracle.queries,
                        detail=f"template: {mutant.description} (pruned {pruned})",
                    )
            if (
                explored > self._config.max_candidates
                or oracle.queries >= self._config.max_oracle_queries
            ):
                break

        return RepairResult(
            status=RepairStatus.NOT_FIXED,
            technique=self.name,
            candidates_explored=explored,
            oracle_queries=oracle.queries,
            detail=f"templates exhausted; pruned {pruned} candidates",
        )

    def _satisfying_instances(
        self, task: RepairTask, failing_commands: list[Command]
    ) -> list[tuple[str | None, Instance]]:
        """Valuations satisfying facts plus each violated assertion.

        These play the role of ATR's PMaxSAT-derived satisfying instances:
        behaviour the repair must *preserve*."""
        preservers: list[tuple[str | None, Instance]] = []
        analyzer = Analyzer(task.module)
        for command in failing_commands:
            if command.kind != "check" or command.target is None:
                continue
            body = task.info.asserts[command.target].body
            probe = Command(
                kind="run",
                block=Block(formulas=list(body.formulas)),
                default_scope=command.default_scope,
                sig_scopes=list(command.sig_scopes),
            )
            try:
                result = analyzer.run_command(
                    probe, max_instances=self._config.satisfying_instances
                )
            except (AlloyError, RecursionError):
                continue
            preservers.extend(
                (command.target, instance) for instance in result.instances
            )
        return preservers

    def _passes_pruning(
        self,
        module,
        discriminators: list[Discriminator],
        preservers: list[tuple[str | None, Instance]],
    ) -> bool:
        try:
            info = resolve_module(module)
        except (AlloyError, RecursionError):
            return False
        if not all(verdict_matches(info, d) for d in discriminators):
            return False
        for assertion, instance in preservers:
            evaluator = Evaluator(info, instance)
            try:
                if not evaluator.facts_hold():
                    return False
                if assertion is not None and not evaluator.assertion_holds(assertion):
                    return False
            except AlloyError:
                return False
        return True
