"""Repair techniques: four traditional tools plus LLM-based approaches."""

from repro.repair.arepair import ARepair, ARepairConfig
from repro.repair.atr import Atr, AtrConfig
from repro.repair.base import (
    PropertyOracle,
    RepairResult,
    RepairStatus,
    RepairTask,
    RepairTool,
)
from repro.repair.beafix import BeAFix, BeAFixConfig
from repro.repair.icebar import Icebar, IcebarConfig
from repro.repair.localization import (
    Discriminator,
    SuspiciousLocation,
    localize,
    verdict_matches,
)
from repro.repair.multi_round import MultiRoundConfig, MultiRoundLLM
from repro.repair.mutation import Mutant, Mutator, higher_order_mutants, mutation_points
from repro.repair.single_round import SingleRoundLLM

# NOTE: repro.repair.registry is deliberately NOT imported here — it pulls
# in the benchmark and LLM layers, which themselves import repair
# submodules; importing it during package init would close that cycle.
# Use ``from repro.repair import registry`` (a plain submodule import).

__all__ = [
    "ARepair",
    "ARepairConfig",
    "Atr",
    "AtrConfig",
    "BeAFix",
    "BeAFixConfig",
    "Discriminator",
    "Icebar",
    "IcebarConfig",
    "Mutant",
    "MultiRoundConfig",
    "MultiRoundLLM",
    "Mutator",
    "PropertyOracle",
    "RepairResult",
    "RepairStatus",
    "RepairTask",
    "RepairTool",
    "SingleRoundLLM",
    "SuspiciousLocation",
    "higher_order_mutants",
    "localize",
    "mutation_points",
    "verdict_matches",
]
