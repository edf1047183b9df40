"""BeAFix: bounded-exhaustive repair search (Gutiérrez Brida et al., ICSE'21).

BeAFix enumerates all candidate repairs reachable by applying up to ``k``
mutations at suspicious locations, pruning the space with two techniques
mirrored from the original tool:

1. *Cheap semantic pruning* — each candidate is first evaluated against the
   counterexamples collected from the faulty specification's failing
   commands (a fast, solver-free evaluator check).  A candidate that still
   admits a known counterexample cannot meet the oracle and is discarded.
2. *Duplicate pruning* — structurally identical candidates (after pretty
   printing) are only evaluated once.

Survivors are validated against the full property oracle (the commands with
their ``expect`` annotations) using the bounded analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alloy.errors import AlloyError
from repro.alloy.pretty import print_module
from repro.alloy.resolver import resolve_module
from repro.repair.base import (
    PropertyOracle,
    RepairResult,
    RepairStatus,
    RepairTask,
    RepairTool,
)
from repro.repair.localization import Discriminator, localize, verdict_matches
from repro.repair.mutation import higher_order_mutants


@dataclass
class BeAFixConfig:
    """Tuning knobs for the bounded-exhaustive search."""

    max_depth: int = 2
    max_locations: int = 10
    max_candidates: int = 600
    max_oracle_queries: int = 40
    prune: bool = True
    """Disable to measure the value of semantic pruning (ablation)."""


class BeAFix(RepairTool):
    """Bounded-exhaustive mutation search with pruning."""

    name = "BeAFix"

    def __init__(self, config: BeAFixConfig | None = None) -> None:
        self._config = config or BeAFixConfig()

    def _repair(self, task: RepairTask) -> RepairResult:
        oracle = PropertyOracle(task)
        evidence = oracle.failing_evidence_by_command(task.module, max_instances=3)
        discriminators = [
            Discriminator.from_command_evidence(command, instance)
            for command, instances in evidence
            for instance in instances
        ]
        locations = localize(
            task.module,
            task.info,
            discriminators,
            max_locations=self._config.max_locations,
        )
        paths = [loc.path for loc in locations]
        explored = 0
        pruned = 0

        for mutant in higher_order_mutants(
            task.module,
            task.info,
            paths,
            depth=self._config.max_depth,
            limit=self._config.max_candidates,
            prune=True,
        ):
            explored += 1
            if oracle.queries >= self._config.max_oracle_queries:
                break
            if self._config.prune and discriminators:
                if not self._refutes_evidence(mutant.module, discriminators):
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
                    candidates_pruned=pruned,
                    oracle_queries=oracle.queries,
                    detail=f"mutations: {mutant.description} (pruned {pruned})",
                )

        return RepairResult(
            status=RepairStatus.NOT_FIXED,
            technique=self.name,
            candidates_explored=explored,
            candidates_pruned=pruned,
            oracle_queries=oracle.queries,
            detail=f"search exhausted; pruned {pruned} candidates",
        )

    @staticmethod
    def _refutes_evidence(module, discriminators: list[Discriminator]) -> bool:
        """Fast evaluator check: the candidate must refute every collected
        counterexample (otherwise the corresponding command still fails)."""
        try:
            info = resolve_module(module)
        except (AlloyError, RecursionError):
            return False
        return all(verdict_matches(info, d) for d in discriminators)
