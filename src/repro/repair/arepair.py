"""ARepair: test-driven greedy repair (Wang, Sullivan & Khurshid, ASE'18).

ARepair takes a faulty specification plus an AUnit test suite and greedily
mutates the specification until every test passes (or its budget runs out).
Its oracle is *only* the test suite — the well-known consequence, reproduced
here, is overfitting: candidates that satisfy the tests but not the intended
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alloy.pretty import print_module
from repro.alloy.resolver import resolve_module
from repro.repair.base import RepairResult, RepairStatus, RepairTask, RepairTool
from repro.repair.localization import Discriminator, localize
from repro.repair.mutation import Mutator
from repro.testing.aunit import TestSuite


@dataclass
class ARepairConfig:
    """Tuning knobs for the greedy search."""

    max_iterations: int = 8
    max_locations: int = 8
    max_mutants_per_iteration: int = 220
    plateau_moves: int = 2
    """How many sideways (equal-score) moves the greedy walk may take when
    no strictly improving mutation exists — multi-edit faults need them."""


class ARepair(RepairTool):
    """Greedy test-driven repair."""

    name = "ARepair"

    def __init__(self, suite: TestSuite, config: ARepairConfig | None = None) -> None:
        self._suite = suite
        self._config = config or ARepairConfig()

    def _repair(self, task: RepairTask) -> RepairResult:
        module = task.module
        info = task.info
        explored = 0
        # Each module's printed text keys the shard-shared AUnit verdicts
        # (TestSuite.verdicts) as well as the visited set.
        text = print_module(module)
        best_score = self._suite.score(info, text)
        plateau_budget = self._config.plateau_moves
        visited = {text}

        for iteration in range(self._config.max_iterations):
            if best_score >= 1.0:
                return RepairResult(
                    status=RepairStatus.FIXED,
                    technique=self.name,
                    candidate=module,
                    candidate_source=text,
                    iterations=iteration,
                    candidates_explored=explored,
                    detail="all tests pass",
                )
            discriminators = [
                Discriminator.from_test(test)
                for test in self._suite.failing(info, text)
            ]
            locations = localize(
                module, info, discriminators, max_locations=self._config.max_locations
            )
            mutator = Mutator(module, info, prune=True)
            best_mutant = None
            best_mutant_score = best_score
            plateau_mutant = None
            count = 0
            for location in locations:
                try:
                    options = list(mutator.mutants_at(location.path))
                except (AttributeError, IndexError, TypeError):
                    continue
                for mutant in options:
                    count += 1
                    explored += 1
                    if count > self._config.max_mutants_per_iteration:
                        break
                    mutant_text = print_module(mutant.module)
                    if mutant_text in visited:
                        continue
                    try:
                        mutant_info = resolve_module(mutant.module)
                    except Exception:  # noqa: BLE001 - any bad mutant is skipped
                        continue
                    score = self._suite.score(mutant_info, mutant_text)
                    if score > best_mutant_score:
                        best_mutant = (mutant, mutant_info, score, mutant_text)
                        best_mutant_score = score
                    elif score == best_score and plateau_mutant is None:
                        plateau_mutant = (mutant, mutant_info, score, mutant_text)
                if count > self._config.max_mutants_per_iteration:
                    break
            if best_mutant is None:
                # No single mutation improves: try pairs at the two most
                # suspicious locations (ARepair applies multiple
                # modifications per iteration when the sketch needs it).
                best_mutant = self._depth_two_rescue(
                    module, locations, best_score, visited
                )
                if best_mutant is not None:
                    explored += best_mutant[4]
                    best_mutant = best_mutant[:4]
            if best_mutant is None and plateau_mutant is not None and plateau_budget:
                # Sideways move: no single mutation improves, but multi-edit
                # faults often require passing through an equal-score state.
                plateau_budget -= 1
                best_mutant = plateau_mutant
            if best_mutant is None:
                # Greedy search is stuck: no single mutation improves the suite.
                return RepairResult(
                    status=RepairStatus.NOT_FIXED,
                    technique=self.name,
                    candidate=module if iteration > 0 else None,
                    candidate_source=text if iteration > 0 else None,
                    iterations=iteration + 1,
                    candidates_explored=explored,
                    detail="no improving mutation found",
                )
            mutant, info, best_score, text = best_mutant
            module = mutant.module
            visited.add(text)

        if best_score >= 1.0:
            return RepairResult(
                status=RepairStatus.FIXED,
                technique=self.name,
                candidate=module,
                candidate_source=text,
                iterations=self._config.max_iterations,
                candidates_explored=explored,
                detail="all tests pass",
            )
        return RepairResult(
            status=RepairStatus.NOT_FIXED,
            technique=self.name,
            candidate=module,
            candidate_source=text,
            iterations=self._config.max_iterations,
            candidates_explored=explored,
            detail=f"budget exhausted at test score {best_score:.2f}",
        )

    def _depth_two_rescue(self, module, locations, best_score, visited):
        """Search mutation pairs at the top suspicious locations for a
        strictly improving candidate.  Returns
        ``(mutant, info, score, text, explored)`` or ``None``."""
        from repro.repair.mutation import higher_order_mutants

        paths = [loc.path for loc in locations[:2]]
        explored = 0
        try:
            info = resolve_module(module)
        except Exception:  # noqa: BLE001
            return None
        for mutant in higher_order_mutants(
            module,
            info,
            paths,
            depth=2,
            limit=80,
            prune=True,
        ):
            explored += 1
            if ";" not in mutant.description:
                continue  # singles were already tried
            text = print_module(mutant.module)
            if text in visited:
                continue
            try:
                mutant_info = resolve_module(mutant.module)
            except Exception:  # noqa: BLE001
                continue
            score = self._suite.score(mutant_info, text)
            if score > best_score:
                return (mutant, mutant_info, score, text, explored)
        return None
