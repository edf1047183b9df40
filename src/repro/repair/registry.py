"""Public registry of repair techniques.

The experiment engine used to hard-code an if/elif chain mapping technique
names to tool constructors, which meant every new technique (and every
experiment that wanted a custom portfolio) had to edit the runner.  The
registry inverts that: techniques are *registered* under their matrix name
with a factory, and the runner — or anything else — asks :func:`create`
for a ready-to-run tool.

A factory receives the :class:`~repro.benchmarks.faults.FaultySpec` being
repaired and the already-derived per-cell seed (see :func:`cell_seed`) and
returns a fresh :class:`~repro.repair.base.RepairTool`.  Tools are built
per cell, never shared, so parallel executors can run cells concurrently
without aliasing state.

The study's twelve techniques are registered at import as *standard*
(included in :func:`all_techniques`, hence in the default matrix).  Extra
techniques register as non-standard: addressable by name in
``RunConfig.techniques`` and ``repro repair --technique``, but absent from
the default matrix so the paper's tables keep their published shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.benchmarks.faults import FaultySpec
from repro.llm.client import RetryingClient
from repro.llm.mock_gpt import GPT35_PROFILE, GPT4_PROFILE, MockGPT
from repro.llm.prompts import FeedbackLevel, PromptSetting
from repro.metrics.rep import truth_analyzer
from repro.repair.arepair import ARepair
from repro.repair.atr import Atr
from repro.repair.base import RepairTool
from repro.repair.beafix import BeAFix
from repro.repair.icebar import Icebar
from repro.repair.multi_round import MultiRoundLLM
from repro.repair.single_round import SingleRoundLLM
from repro.testing.generation import generate_suite

TechniqueFactory = Callable[[FaultySpec, int], RepairTool]
"""Builds one tool instance for one (specification, technique) cell.

Arguments are the faulty specification and the derived per-cell seed."""

TRADITIONAL = ["ARepair", "ICEBAR", "BeAFix", "ATR"]
SINGLE_ROUND = [f"Single-Round_{s.value}" for s in PromptSetting]
MULTI_ROUND = [f"Multi-Round_{f.value}" for f in FeedbackLevel]


@dataclass(frozen=True)
class _Entry:
    name: str
    factory: TechniqueFactory
    standard: bool


_REGISTRY: dict[str, _Entry] = {}


def register(
    name: str,
    factory: TechniqueFactory,
    *,
    standard: bool = False,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    ``standard`` techniques appear in :func:`all_techniques` and therefore
    in the default experiment matrix; non-standard ones must be requested
    explicitly.  Re-registering an existing name raises unless ``replace``
    is set (the escape hatch tests and experiments use to stub techniques).
    """
    if name in _REGISTRY and not replace:
        raise ValueError(f"technique {name!r} already registered")
    _REGISTRY[name] = _Entry(name=name, factory=factory, standard=standard)


def unregister(name: str) -> None:
    """Remove a registered technique (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def names() -> list[str]:
    """Every registered technique, standard or not, in registration order."""
    return list(_REGISTRY)


def all_techniques() -> list[str]:
    """The standard techniques — the default experiment matrix columns."""
    return [entry.name for entry in _REGISTRY.values() if entry.standard]


def create(name: str, spec: FaultySpec, seed: int) -> RepairTool:
    """Build the tool for one cell.

    ``seed`` is the *run* seed; the per-cell seed handed to the factory is
    derived via :func:`cell_seed`, so every (spec, technique) cell draws
    from an independent deterministic stream regardless of execution order.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(f"unknown technique {name!r}")
    return entry.factory(spec, cell_seed(spec, name, seed))


def cell_seed(spec: FaultySpec, technique: str, seed: int) -> int:
    """The deterministic per-cell seed: a digest of run seed, spec, technique.

    Independent of iteration order, which is what makes parallel execution
    bit-identical to serial execution."""
    digest = hashlib.sha256(
        f"{seed}:{spec.spec_id}:{technique}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def _arepair_suite_size(spec: FaultySpec) -> int:
    """AUnit suite size for bare ARepair, per benchmark.

    The ARepair benchmark ships with author-written AUnit suites (strong);
    Alloy4Fun has none, so the study's ARepair runs there relied on minimal
    generated suites — the source of ARepair's extreme overfitting."""
    return 4 if spec.benchmark == "arepair" else 1


def _icebar_suite_size(spec: FaultySpec) -> int:
    """ICEBAR seeds its refinement loop with a moderate suite and grows it
    from counterexamples, so its initial suite matters less."""
    return 5 if spec.benchmark == "arepair" else 3


def _make_arepair(spec: FaultySpec, seed: int) -> RepairTool:
    size = _arepair_suite_size(spec)
    suite = generate_suite(
        truth_analyzer(spec.truth_source),
        positives=size,
        negatives=size,
        seed=seed,
    )
    return ARepair(suite)


def _make_icebar(spec: FaultySpec, seed: int) -> RepairTool:
    size = _icebar_suite_size(spec)
    suite = generate_suite(
        truth_analyzer(spec.truth_source),
        positives=size,
        negatives=size,
        seed=seed,
    )
    return Icebar(suite)


def _make_single_round(setting: PromptSetting) -> TechniqueFactory:
    def factory(spec: FaultySpec, seed: int) -> RepairTool:
        # The retry wrapper is a pass-through over the offline mock but
        # keeps the call path identical to a real-API deployment.
        client = RetryingClient(MockGPT(seed=seed, profile=GPT35_PROFILE))
        return SingleRoundLLM(client, setting, spec.hints)

    return factory


def _make_multi_round(feedback: FeedbackLevel) -> TechniqueFactory:
    def factory(spec: FaultySpec, seed: int) -> RepairTool:
        client = RetryingClient(MockGPT(seed=seed, profile=GPT4_PROFILE))
        return MultiRoundLLM(client, feedback)

    return factory


def _register_builtins() -> None:
    register("ARepair", _make_arepair, standard=True)
    register("ICEBAR", _make_icebar, standard=True)
    register("BeAFix", lambda spec, seed: BeAFix(), standard=True)
    register("ATR", lambda spec, seed: Atr(), standard=True)
    for setting in PromptSetting:
        register(
            f"Single-Round_{setting.value}",
            _make_single_round(setting),
            standard=True,
        )
    for feedback in FeedbackLevel:
        register(
            f"Multi-Round_{feedback.value}",
            _make_multi_round(feedback),
            standard=True,
        )


_register_builtins()
