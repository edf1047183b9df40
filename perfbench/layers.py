"""Per-layer self time, measured by wrapping the public entry points of the
``repro`` layers from outside the package.

A :class:`LayerTrace` swaps each boundary listed in :data:`BOUNDARIES` for a
timing wrapper, in the defining module and in every loaded ``repro`` module
that imported the object by name, and swaps the originals back on
:meth:`LayerTrace.uninstall`.  A layer's self time is its wrapped calls'
duration minus the time spent in wrapped calls they made; a call that
re-enters the layer it is already in is not timed again, so recursive entry
points are counted once.

Counters (solver work, oracle checks, dedup hits, LLM requests) are not
measured here: they come from the program's own ``repro.obs`` registry,
which a shard fills when its task is traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict

BOUNDARIES: list[tuple[str, str, str]] = [
    # (layer, module, attribute or Class.method)
    ("alloy.parse", "repro.alloy.parser", "parse_module"),
    ("alloy.resolve", "repro.alloy.resolver", "resolve_module"),
    ("alloy.pretty", "repro.alloy.pretty", "print_module"),
    ("analysis.lint", "repro.analysis.lint", "lint_module"),
    ("analysis.prune", "repro.analysis.prune", "CandidateFilter.veto"),
    ("analysis.canon", "repro.analysis.canon", "canonical_key"),
    ("analyzer.scratch", "repro.analyzer.analyzer", "Analyzer.run_command"),
    ("analyzer.session", "repro.analyzer.session", "OracleSession.evaluate"),
    ("analyzer.translate", "repro.analyzer.translate", "Translator.formula"),
    ("analyzer.translate", "repro.analyzer.translate", "Translator.matrix"),
    ("analyzer.evaluator", "repro.analyzer.evaluator", "Evaluator.expr"),
    ("analyzer.evaluator", "repro.analyzer.evaluator", "Evaluator.formula"),
    ("analyzer.evaluator", "repro.analyzer.evaluator", "Evaluator.facts_hold"),
    ("analyzer.evaluator", "repro.analyzer.evaluator", "Evaluator.pred_holds"),
    (
        "analyzer.evaluator",
        "repro.analyzer.evaluator",
        "Evaluator.assertion_holds",
    ),
    ("sat.solve", "repro.sat.solver", "SatSolver.solve"),
    ("sat.solve", "repro.sat.solver", "SolveSession.solve"),
    ("llm.complete", "repro.llm.client", "RetryingClient.complete"),
    ("llm.extract", "repro.llm.extract", "extract_module"),
    ("repair", "repro.repair.base", "RepairTool.repair"),
    ("metrics.rep", "repro.metrics.rep", "rep_outcome"),
    ("metrics.tm", "repro.metrics.bleu", "token_match"),
    ("metrics.sm", "repro.metrics.syntax_match", "syntax_match"),
    ("experiments.truth", "repro.metrics.rep", "truth_command_outcomes"),
    ("experiments.shard", "repro.experiments.executor", "execute_shard"),
    ("benchmarks.generate", "repro.benchmarks.cache", "load_benchmark"),
    ("runtime.persist", "repro.runtime.persist", "atomic_write_json"),
    ("runtime.persist", "repro.runtime.persist", "load_json"),
    ("service.submit", "repro.service.client", "ServiceClient.submit"),
]

PASS_LAYERS = [
    "alloy.parse",
    "alloy.resolve",
    "alloy.pretty",
    "analysis.lint",
    "analysis.prune",
    "analysis.canon",
    "analyzer.scratch",
    "analyzer.session",
    "analyzer.translate",
    "analyzer.evaluator",
    "sat.solve",
    "llm.complete",
    "llm.extract",
    "repair",
    "metrics.rep",
    "metrics.tm",
    "metrics.sm",
    "experiments.truth",
    "experiments.shard",
    "service.submit",
]
"""Layers whose ``<layer>.self_s`` is measured over the timed pass.  Their
sum plus ``unattributed_s`` is the traced wall time.  ``benchmarks`` and
``runtime`` are set-up layers: they are reported over set-up instead."""


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    owner, _, method = attr.rpartition(".")
    if owner:
        return getattr(module, owner), method
    return module, attr


class LayerTrace:
    """Self time and call counts per layer, split by phase.

    ``phase`` names the part of the run being measured (``"setup"``,
    ``"pass"``, ...); every wrapped call is booked to the phase current when
    it returns.  Call stacks are per thread; totals are shared under a lock,
    so calls made on several threads are summed.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.inclusive_s: dict[tuple[str, str], float] = defaultdict(float)
        self.write_bytes: dict[str, int] = defaultdict(int)
        self.writes: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, boundaries: list[tuple[str, str, str]] = BOUNDARIES) -> None:
        """Wrap every boundary; the ``repro`` modules must be importable."""
        if self._patches:
            return
        importlib.import_module("repro.cli")
        importlib.import_module("repro.service.daemon")
        for layer, module_name, attr in boundaries:
            owner, name = _resolve(module_name, attr)
            original = owner.__dict__[name]
            wrapper = self._wrap(layer, original, name == "atomic_write_json")
            self._patch(owner, name, wrapper)
            if isinstance(owner, type):
                continue
            # Modules that did `from X import f` hold their own reference.
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith(
                    "repro"
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, fn, counts_write: bool):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(trace._local, "stack", None)
            if stack is None:
                stack = trace._local.stack = []
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (trace.phase, layer)
                with trace._lock:
                    trace.calls[key] += 1
                    trace.self_s[key] += elapsed - frame[1]
                    trace.inclusive_s[key] += elapsed
                    if counts_write:
                        trace.writes[trace.phase] += 1
                        path = args[0] if args else kwargs.get("path")
                        try:
                            trace.write_bytes[trace.phase] += os.path.getsize(path)
                        except (OSError, TypeError):
                            pass

        return wrapper

    # -- read-out -------------------------------------------------------------

    def layer_self(self, phase: str, layer: str) -> float:
        return self.self_s.get((phase, layer), 0.0)

    def layer_calls(self, phase: str, layer: str) -> int:
        return self.calls.get((phase, layer), 0)

    def layer_inclusive(self, phase: str, layer: str) -> float:
        return self.inclusive_s.get((phase, layer), 0.0)


def counter_totals(snapshots: list[dict]) -> dict[str, float]:
    """Sum ``repro.obs`` counters by name across shard snapshots, ignoring
    labels (the technique label splits them per tool)."""
    from repro.obs import parse_key

    totals: dict[str, float] = defaultdict(float)
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            totals[parse_key(key)[0]] += value
    return dict(totals)


DETERMINISTIC_COUNTERS = [
    "sat.solves",
    "sat.decisions",
    "sat.propagations",
    "sat.conflicts",
    "sat.learned_clauses",
    "sat.restarts",
    "sat.session.reused_clauses",
    "repair.oracle_calls",
    "analysis.dedup_hits",
    "llm.requests",
    "oracle.session.fragment_hits",
    "oracle.session.fragment_misses",
]
"""Work counts that must repeat exactly between two traced passes of one
workload; ``repair.oracle_checks`` is derived from two of them."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(trace: LayerTrace, counters: dict[str, float]) -> dict[str, float]:
    """The per-layer figures of one traced pass (phase ``"pass"``)."""
    metrics: dict[str, float] = {}
    for layer in PASS_LAYERS:
        metrics[f"{layer}.self_s"] = trace.layer_self("pass", layer)
    for layer in ("alloy.parse", "alloy.resolve", "analysis.lint",
                  "analyzer.scratch", "sat.solve"):
        metrics[f"{layer}.calls"] = trace.layer_calls("pass", layer)
    c = counters.get
    oracle_calls = c("repair.oracle_calls", 0)
    dedup = c("analysis.dedup_hits", 0)
    hits = c("oracle.session.fragment_hits", 0)
    misses = c("oracle.session.fragment_misses", 0)
    metrics.update(
        {
            "analysis.pruned": c("repair.pruned", 0),
            "analysis.dedup_hits": dedup,
            "analysis.dedup_ratio": _ratio(dedup, oracle_calls),
            "analyzer.session.checks": c("oracle.session.checks", 0),
            "analyzer.session.fragment_hits": hits,
            "analyzer.session.fragment_misses": misses,
            "analyzer.session.fragment_hit_ratio": _ratio(hits, hits + misses),
            "sat.conflicts": c("sat.conflicts", 0),
            "sat.decisions": c("sat.decisions", 0),
            "sat.propagations": c("sat.propagations", 0),
            "sat.learned_clauses": c("sat.learned_clauses", 0),
            "sat.session.reused_clauses": c("sat.session.reused_clauses", 0),
            "llm.requests": c("llm.requests", 0),
            "llm.tokens_est": c("llm.prompt_tokens", 0)
            + c("llm.completion_tokens", 0),
            "repair.candidates": c("repair.candidates", 0),
            "repair.oracle_calls": oracle_calls,
            "repair.oracle_checks": oracle_calls - dedup,
            "repair.fixed_share": _ratio(
                c("repair.fixed", 0), c("repair.attempts", 0)
            ),
        }
    )
    return metrics
