"""Shared machinery for every repair technique.

A :class:`RepairTask` wraps one faulty specification together with its
*property oracle*: the specification's own commands annotated with expected
outcomes (``expect 0`` / ``expect 1``), exactly the oracle BeAFix, ICEBAR,
and ATR consume.  A :class:`RepairResult` records what the technique
produced; the study's REP/TM/SM metrics are computed later against the
ground truth, which the tools never see.
"""

from __future__ import annotations

import enum
import hashlib
import threading
import time
from dataclasses import dataclass, field

from repro import chaos, obs
from repro.alloy.errors import AlloyError
from repro.alloy.nodes import Module
from repro.runtime.errors import classify_exception
from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.alloy.resolver import ModuleInfo, resolve_module
from repro.analysis.canon import canonical_key, record_dedup_hit, shared_verdicts
from repro.analyzer.analyzer import Analyzer, CommandResult
from repro.analyzer.instance import Instance
from repro.analyzer.session import OracleSession


class RepairStatus(enum.Enum):
    """Terminal status of one repair attempt."""

    FIXED = "fixed"  # candidate meets the tool's oracle
    NOT_FIXED = "not_fixed"  # search exhausted without an oracle-passing fix
    ERROR = "error"  # the tool crashed or the input did not compile


@dataclass
class RepairTask:
    """One faulty specification to repair."""

    source: str
    module: Module = None  # type: ignore[assignment]
    info: ModuleInfo = None  # type: ignore[assignment]

    @classmethod
    def from_source(cls, source: str) -> "RepairTask":
        module = parse_module(source)
        info = resolve_module(module)
        return cls(source=source, module=module, info=info)

    @classmethod
    def from_module(cls, module: Module) -> "RepairTask":
        return cls(
            source=print_module(module),
            module=module,
            info=resolve_module(module),
        )


@dataclass
class RepairResult:
    """Outcome of one repair attempt."""

    status: RepairStatus
    technique: str
    candidate: Module | None = None
    candidate_source: str | None = None
    iterations: int = 0
    candidates_explored: int = 0
    candidates_pruned: int = 0
    """Candidates discarded before oracle evaluation (BeAFix-style
    semantic/duplicate pruning); zero for techniques that do not prune."""
    oracle_queries: int = 0
    elapsed: float = 0.0
    detail: str = ""
    error_code: str | None = None
    """Taxonomy code (:func:`classify_exception`) when ``status`` is ERROR
    because the tool crashed.  Runtime-only — never persisted — so health
    machinery (circuit breakers) can route on error class without parsing
    ``detail``."""

    @property
    def fixed(self) -> bool:
        return self.status is RepairStatus.FIXED

    def final_source(self, task: RepairTask) -> str:
        """The text this technique would hand to the metrics: its candidate
        if it produced one, otherwise the unmodified faulty input."""
        if self.candidate_source is not None:
            return self.candidate_source
        if self.candidate is not None:
            return print_module(self.candidate)
        return task.source


class PropertyOracle:
    """Evaluates candidates against the specification's own commands.

    A candidate *meets the oracle* when every command's satisfiability
    matches its ``expect`` annotation (commands without an annotation default
    to the conventional reading: ``check`` expects no counterexample, ``run``
    expects an instance).
    """

    def __init__(self, task: RepairTask) -> None:
        self._task = task
        self.queries = 0
        self.solver_checks = 0
        """Verdicts actually computed by the solver pipeline; ``queries``
        minus the dedup-cache replays."""
        self._session: OracleSession | None = None
        self._session_failed = False
        self._verdict_cache: dict[str, tuple[bool, list[CommandResult]]] = {}
        self._task_fingerprint = hashlib.sha256(
            task.source.encode("utf-8", "replace")
        ).hexdigest()
        """Namespaces this oracle's entries in the shard-shared cache
        (:func:`repro.analysis.canon.verdict_sharing`): verdicts are a pure
        function of (task commands+expectations, candidate semantics), and
        the commands and expectations are determined by the task source."""

    def expected_outcome(self, command) -> bool:
        if command.expect is not None:
            return command.expect == 1
        return command.kind == "run"

    def _ensure_session(self) -> OracleSession | None:
        """The shared incremental session, unless it failed on this task."""
        if self._session_failed:
            return None
        if self._session is None:
            try:
                self._session = OracleSession(self._task.info)
            except Exception:
                self._session_failed = True
                return None
        return self._session

    def evaluate_module(self, module: Module) -> tuple[bool, list[CommandResult]]:
        """Run the *task's* commands against a candidate.

        Using the task's command list (not the candidate's) closes a
        loophole: a candidate that dropped its commands would otherwise pass
        the oracle vacuously.  Commands reference predicates/assertions by
        name, so a candidate missing them simply fails.

        This is a verdict-only query (per-command satisfiability), so it
        runs through a shared :class:`OracleSession` that re-encodes only
        the candidate's edited paragraph; results carry no instances.
        Structurally divergent candidates, session failures, and every
        instance-producing query below use the from-scratch Analyzer,
        which reaches the same verdicts.

        Semantic dedup: candidates hash to their canonical form and only
        one representative per equivalence class reaches the solver —
        later members replay the cached verdict.  ``queries`` still
        increments on a replay, so the tools' oracle-budget traversal (and
        therefore every matrix cell) is byte-identical to solving every
        candidate; only ``solver_checks`` and wall-clock drop.  Inside a
        :func:`~repro.analysis.canon.verdict_sharing` scope (installed per
        shard by the executor) the cache is additionally shared across
        *tools*: BeAFix's verdicts replay for the canonically-equal
        candidates ATR's templates re-derive, keyed by the task
        fingerprint so distinct tasks never collide."""
        self.queries += 1
        key = canonical_key(module, self._task.info)
        if key is None:
            return self._evaluate_uncached(module)
        shared = shared_verdicts()
        if shared is not None:
            cache = shared
            cache_key: object = ("verdict", self._task_fingerprint, key)
        else:
            cache = self._verdict_cache
            cache_key = key
        cached = cache.get(cache_key)
        if cached is not None:
            record_dedup_hit()
            return cached
        verdict = self._evaluate_uncached(module)
        cache[cache_key] = verdict
        return verdict

    def _evaluate_uncached(
        self, module: Module
    ) -> tuple[bool, list[CommandResult]]:
        self.solver_checks += 1
        session = self._ensure_session()
        if session is not None:
            try:
                outcome = session.evaluate(module)
            except Exception:
                # A session-machinery bug must never change a verdict:
                # disable it for the rest of this task and fall back.
                self._session_failed = True
                self._session = None
                outcome = None
            if outcome is not None:
                session_results, completed = outcome
                if not completed:
                    return False, session_results
                ok = all(
                    result.sat == self.expected_outcome(command)
                    for command, result in zip(
                        self._task.info.commands, session_results
                    )
                )
                return ok, session_results
        try:
            analyzer = Analyzer(module)
        except (AlloyError, RecursionError):
            return False, []
        results: list[CommandResult] = []
        ok = True
        for command in self._task.info.commands:
            try:
                result = analyzer.run_command(command)
            except (AlloyError, RecursionError):
                return False, results
            results.append(result)
            if result.sat != self.expected_outcome(command):
                ok = False
        return ok, results

    def failing_evidence(
        self, module: Module, max_instances: int = 3
    ) -> list[Instance]:
        """Counterexamples from commands that defy expectations (flat list)."""
        return [
            instance
            for _, instances in self.failing_evidence_by_command(
                module, max_instances
            )
            for instance in instances
        ]

    def failing_evidence_by_command(
        self, module: Module, max_instances: int = 3
    ) -> list[tuple["object", list[Instance]]]:
        """Counterexamples per offending command.

        For a failing ``check`` (or an unexpectedly satisfiable ``run``) the
        evidence is the offending instances; an unsatisfiable-but-expected-sat
        command yields no instances (nothing to show).

        Inside a :func:`~repro.analysis.canon.verdict_sharing` scope the
        evidence is shared across tools: every technique in a shard opens
        with this exact query on the task module, and the analyzer is
        deterministic, so the second tool replays the first's instances.
        Unlike verdicts, instances depend on the module's *encoding*, so
        the key is the exact printed text — canonical equality is not
        enough to share them.  Replays advance ``queries`` by the same
        per-command count as the original run, keeping every tool's
        budget traversal byte-identical to an unshared run.
        """
        cache = shared_verdicts()
        cache_key: object = None
        if cache is not None:
            try:
                text = print_module(module)
            except Exception:
                cache = None
            else:
                cache_key = (
                    "evidence",
                    self._task_fingerprint,
                    hashlib.sha256(text.encode("utf-8", "replace")).hexdigest(),
                    max_instances,
                )
                entry = cache.get(cache_key)
                if entry is not None:
                    evidence, skipped_queries = entry
                    self.queries += skipped_queries
                    if skipped_queries:
                        record_dedup_hit(skipped_queries)
                    return evidence
        queries_before = self.queries
        try:
            analyzer = Analyzer(module)
        except (AlloyError, RecursionError):
            return []
        evidence: list[tuple[object, list[Instance]]] = []
        for command in analyzer.info.commands:
            self.queries += 1
            try:
                result = analyzer.run_command(command, max_instances=max_instances)
            except (AlloyError, RecursionError):
                continue
            if result.sat != self.expected_outcome(command) and result.sat:
                evidence.append((command, result.instances))
        if cache is not None:
            cache[cache_key] = (evidence, self.queries - queries_before)
        return evidence

    def witnesses(self, module: Module, max_instances: int = 3) -> list[Instance]:
        """Instances of commands that behave as expected (SAT side only)."""
        try:
            analyzer = Analyzer(module)
        except (AlloyError, RecursionError):
            return []
        found: list[Instance] = []
        for command in analyzer.info.commands:
            if not self.expected_outcome(command):
                continue
            self.queries += 1
            try:
                result = analyzer.run_command(command, max_instances=max_instances)
            except (AlloyError, RecursionError):
                continue
            if result.sat:
                found.extend(result.instances)
        return found


_REPAIR_FRAME = threading.local()
"""Marks that a repair attempt is already on the stack: ICEBAR drives
inner tools through ``repair()``, and the chaos crash site must fire only
at the top level — a nested injection would be absorbed by the *outer*
tool's isolation instead of escaping to the engine's failure capture,
which is the contract under test."""


class RepairTool:
    """Base class: a repair technique maps a task to a result."""

    name = "abstract"

    def repair(self, task: RepairTask) -> RepairResult:
        toplevel = not getattr(_REPAIR_FRAME, "busy", False)
        if toplevel:
            event = chaos.fire("repair.crash", technique=self.name)
            if event is not None:
                # Deliberately *outside* the crash-isolation frame below:
                # this models the whole tool dying (the paper's
                # crashed-tool rows), so the exception must escape to the
                # experiment engine's failure capture, not degrade into an
                # ERROR outcome here.
                code, error = chaos.crash_exception(event.payload)
                event.info["code"] = code
                raise error
            _REPAIR_FRAME.busy = True
        start = time.perf_counter()
        # Ambient technique label: solver/analyzer/LLM metrics recorded
        # anywhere below this frame are attributed to this technique, which
        # is what `repro profile` rolls up.
        try:
            with obs.labels(technique=self.name), obs.span(
                "repair", technique=self.name
            ) as span:
                try:
                    result = self._repair(task)
                except Exception as error:
                    # Crash isolation: one pathological spec (or a tool bug)
                    # must cost one repair attempt, not the whole benchmark
                    # run.  The error code keeps the failure classifiable
                    # downstream.
                    result = RepairResult(
                        status=RepairStatus.ERROR,
                        technique=self.name,
                        detail=f"[{classify_exception(error)}] {error}",
                        error_code=classify_exception(error),
                    )
                result.elapsed = time.perf_counter() - start
                result.technique = self.name
                span.set(
                    status=result.status.value,
                    iterations=result.iterations,
                    candidates=result.candidates_explored,
                )
                self._record_metrics(result)
        finally:
            if toplevel:
                _REPAIR_FRAME.busy = False
        return result

    def _record_metrics(self, result: RepairResult) -> None:
        """Per-technique telemetry from one finished attempt."""
        if not obs.get_metrics().enabled:
            return
        obs.counter("repair.attempts").inc()
        if result.fixed:
            obs.counter("repair.fixed").inc()
        obs.counter("repair.iterations").inc(result.iterations)
        obs.counter("repair.candidates").inc(result.candidates_explored)
        obs.counter("repair.pruned").inc(result.candidates_pruned)
        obs.counter("repair.oracle_calls").inc(result.oracle_queries)
        obs.histogram("repair.seconds").observe(result.elapsed)

    def _repair(self, task: RepairTask) -> RepairResult:
        raise NotImplementedError
