"""Incremental candidate oracle: one solve session shared across candidates.

Repair tools evaluate hundreds of candidates that are tiny edits of the same
specification, yet the one-shot :class:`~repro.analyzer.analyzer.Analyzer`
re-grounds the full model and solves from scratch for each one.  An
:class:`OracleSession` exploits the overlap:

- the *structural* part of the problem — universe, signature/field variables,
  hierarchy and multiplicity constraints, field-declaration constraints — is
  translated once per distinct command scope and asserted permanently;
- every *paragraph* (each fact, plus each command's target) becomes a CNF
  fragment guarded by a selector literal, keyed by a digest of its printed
  source together with the printed sources of every predicate/function it
  transitively calls;
- checking a candidate re-encodes only the fragments whose digests are new
  (the edited paragraph) and solves under assumptions enabling exactly that
  candidate's fragments, so learned clauses and branching activity carry
  across the whole candidate stream.

Commands with equal scope lines share one solver: their fact fragments are
encoded once and conflicts learned while checking one command keep pruning
the other's queries.  Paragraph prints and call-name scans are memoized by
node identity, which the path-copying mutation utilities
(:mod:`repro.alloy.walk`) make effective — a mutant shares every untouched
subtree with its base module, so digesting it costs one paragraph print.

Candidates whose signature declarations differ from the base module (e.g.
field-multiplicity mutants) cannot share the structural encoding; for those
``evaluate`` returns ``None`` and the caller falls back to the from-scratch
path.  The session answers *verdict-only* queries (satisfiability per
command); anything that needs instances keeps using the Analyzer.  Every
verdict-only query goes through a session: the repair tools' oracle
queries (:class:`~repro.repair.base.PropertyOracle`) and the simulated
LLM's reduced-scope self-checks (one session per completion, in
:mod:`repro.llm.mock_gpt`).  The tests pin that repair outcomes are
bit-identical to an arm that solves every candidate from scratch.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable

from repro import chaos, obs
from repro.alloy.errors import AlloyError, AnalysisBudgetError, EvaluationError
from repro.alloy.nodes import (
    Block,
    Command,
    Formula,
    FunCall,
    Module,
    NameExpr,
    Node,
    Not,
    PredCall,
)
from repro.alloy.pretty import print_paragraph
from repro.alloy.resolver import ModuleInfo, resolve_module
from repro.analyzer.analyzer import DEFAULT_CONFLICT_LIMIT, CommandResult
from repro.analyzer.semantics import field_constraints
from repro.analyzer.translate import Translator
from repro.analyzer.universe import Bounds
from repro.sat.circuit import CircuitBuilder
from repro.sat.solver import BudgetExceeded, SolveSession

_REBUILD_CLAUSE_LIMIT = 500_000
"""Safety valve: a scope session whose clause database (fragments plus
learned clauses) outgrows this is torn down and rebuilt from the static
part, bounding memory across very long candidate streams."""

_RETIRE_FRESH = True
"""Retire single-use candidate fragments as soon as the next check skips
them, keeping the solver's live clause set proportional to the base module
rather than to the whole candidate stream."""

_MEMO_LIMIT = 100_000
"""Cap on the identity-keyed print/name memos (they pin candidate AST nodes
alive); exceeding it clears them, trading reuse for bounded memory."""


_Fragment = tuple[bytes, Callable[[], Formula]]
"""A fragment is its content digest plus a thunk producing the formula to
translate — built only on a cache miss."""


class _ScopeSession:
    """The persistent encoding of one command scope across candidates."""

    def __init__(self, info: ModuleInfo, command: Command) -> None:
        self._info = info
        self._command = command  # any command with this scope line
        self._build()

    def _build(self) -> None:
        self.session = SolveSession()
        self._builder = CircuitBuilder(self.session.solver)
        self._bounds = Bounds(self._info, self._command, self._builder)
        translator = Translator(self._info, self._bounds)
        for formula in field_constraints(self._info):
            self._builder.assert_true(translator.formula(formula))
        self._selectors: dict[bytes, int] = {}
        self._fresh: list[bytes] = []
        self._units: dict[int, tuple[Node, tuple[Node, ...], int]] = {}

    def _unit_handle(
        self, info: ModuleInfo, formula: Formula, oracle: "OracleSession"
    ) -> int:
        """Circuit handle for one top-level conjunct, memoized by identity.

        Handles stay valid for the lifetime of this scope's builder, so a
        fragment miss (an edited fact block) re-translates only the inner
        formulas that actually changed.  The memo entry records the
        predicate/function declarations the conjunct transitively calls —
        translation inlines their bodies, so a cached handle is reused only
        when the whole call closure is the same objects.
        """
        closure = oracle._closure_decls(formula, info)
        entry = self._units.get(id(formula))
        if (
            entry is not None
            and entry[0] is formula
            and len(entry[1]) == len(closure)
            and all(a is b for a, b in zip(entry[1], closure))
        ):
            return entry[2]
        if len(self._units) > _MEMO_LIMIT:
            self._units.clear()
        handle = Translator(info, self._bounds).formula(formula)
        self._units[id(formula)] = (formula, closure, handle)
        return handle

    def _formula_handle(
        self, info: ModuleInfo, formula: Formula, oracle: "OracleSession"
    ) -> int:
        """Translate a fragment formula, splitting blocks into memoized
        conjuncts (mirrors the translator: a block grounds to the
        conjunction of its formulas, ``Not`` to the negation)."""
        if isinstance(formula, Block):
            return self._builder.and_(
                [
                    self._unit_handle(info, inner, oracle)
                    for inner in formula.formulas
                ]
            )
        if isinstance(formula, Not) and isinstance(formula.operand, Block):
            return -self._formula_handle(info, formula.operand, oracle)
        return self._unit_handle(info, formula, oracle)

    def check(
        self,
        info: ModuleInfo,
        fragments: list[_Fragment],
        conflict_limit: int | None,
        oracle: "OracleSession",
    ) -> bool:
        """Satisfiability of the conjunction of ``fragments`` for one query."""
        if self.session.solver.num_clauses > _REBUILD_CLAUSE_LIMIT:
            self._build()
        if (
            chaos.fire(
                "analyzer.explode", clauses=self.session.solver.num_clauses
            )
            is not None
        ):
            raise AnalysisBudgetError(
                "chaos: translation exploded past the clause budget "
                f"({self.session.solver.num_clauses} clauses grounded)"
            )
        # Retire fragments that were encoded for the previous candidate but
        # are not part of this one: a mutant's edited paragraph is checked
        # exactly once, and the unit ``[-selector]`` makes its clause group
        # permanently satisfied at level 0 — otherwise the solver keeps
        # paying watch/branching overhead for every dormant candidate ever
        # seen.  Shared fragments (the base module's paragraphs) are hits on
        # the very next check and therefore never retired.
        if _RETIRE_FRESH and self._fresh:
            current = {digest for digest, _ in fragments}
            for digest in self._fresh:
                if digest not in current:
                    stale = self._selectors.pop(digest, None)
                    if stale is not None:
                        self.session.retire(stale)
            self._fresh = []
        assumptions: list[int] = []
        hits = 0
        misses = 0
        for digest, make_formula in fragments:
            selector = self._selectors.get(digest)
            if selector is None:
                selector = self.session.new_selector()
                self._builder.assert_under(
                    selector, self._formula_handle(info, make_formula(), oracle)
                )
                self._selectors[digest] = selector
                self._fresh.append(digest)
                misses += 1
            else:
                hits += 1
            assumptions.append(selector)
        if obs.get_metrics().enabled:
            obs.counter("oracle.session.checks").inc()
            obs.counter("oracle.session.fragment_hits").inc(hits)
            obs.counter("oracle.session.fragment_misses").inc(misses)
        try:
            return self.session.solve(assumptions, conflict_limit=conflict_limit)
        except BudgetExceeded as error:
            raise AnalysisBudgetError(str(error)) from error


class OracleSession:
    """Evaluates a stream of candidate modules against one task's commands.

    Mirrors the verdict semantics of
    :meth:`~repro.repair.base.PropertyOracle.evaluate_module` exactly: the
    *task's* commands run against each candidate, a candidate that fails to
    resolve (or whose analysis errors mid-way) yields ``(results, False)``
    with the results accumulated so far, and per-command satisfiability is
    computed under the same conflict budget as the from-scratch Analyzer.
    """

    def __init__(
        self,
        info: ModuleInfo,
        conflict_limit: int | None = DEFAULT_CONFLICT_LIMIT,
    ) -> None:
        self._info = info
        self._conflict_limit = conflict_limit
        self._commands = list(info.commands)
        self._base_sigs = list(info.module.sigs)
        self._print_memo: dict[int, tuple[Node, str]] = {}
        self._names_memo: dict[int, tuple[Node, frozenset[str]]] = {}
        self._fingerprint = tuple(self._print(sig) for sig in self._base_sigs)
        self._spaces: dict[object, _ScopeSession] = {}
        # Per-command constant pieces of the target fragment: the printed
        # command (part of the digest) and, for run commands, the fixed
        # target formula.
        self._command_texts = [print_paragraph(c) for c in self._commands]
        self._run_targets: list[Formula | None] = []
        for command in self._commands:
            target: Formula | None = None
            if command.kind == "run":
                if command.target is not None:
                    target = PredCall(name=command.target, args=[])
                else:
                    target = command.block or Block()
            elif command.target is None:
                target = Not(operand=command.block or Block())
            self._run_targets.append(target)

    # -- identity-memoized AST digests ----------------------------------------

    def _print(self, node: Node) -> str:
        """``print_paragraph`` memoized by node identity."""
        entry = self._print_memo.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        if len(self._print_memo) > _MEMO_LIMIT:
            self._print_memo.clear()
        text = print_paragraph(node)
        self._print_memo[id(node)] = (node, text)
        return text

    def _call_names(self, node: Node) -> frozenset[str]:
        """Names syntactically referenced as predicate/function calls.

        Purely syntactic (it over-approximates: signature references appear
        too, and are filtered against the symbol tables by the caller), which
        is what makes memoizing by node identity sound.
        """
        entry = self._names_memo.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        if len(self._names_memo) > _MEMO_LIMIT:
            self._names_memo.clear()
        names = frozenset(
            child.name
            for child in node.walk()
            if isinstance(child, (PredCall, FunCall, NameExpr))
        )
        self._names_memo[id(node)] = (node, names)
        return names

    def _closure(self, roots: list[Node], info: ModuleInfo) -> dict[str, Node]:
        """Declarations of every predicate/function ``roots`` transitively
        call, by name (syntactic closure over the memoized call scans)."""
        closure: dict[str, Node] = {}
        pending = list(roots)
        while pending:
            node = pending.pop()
            for name in self._call_names(node):
                if name in closure:
                    continue
                decl = info.preds.get(name) or info.funs.get(name)
                if decl is None:
                    continue
                closure[name] = decl
                pending.append(decl)
        return closure

    def _closure_decls(self, root: Node, info: ModuleInfo) -> tuple[Node, ...]:
        """The call closure as a name-ordered tuple of declaration nodes —
        the identity context for cached per-conjunct circuit handles."""
        closure = self._closure([root], info)
        return tuple(closure[name] for name in sorted(closure))

    def _digest(
        self, root_text: str, roots: list[Node], info: ModuleInfo
    ) -> bytes:
        """Content digest of one fragment.

        Covers the fragment's own printed source plus the printed
        declarations of every predicate/function it transitively calls, so a
        cached fragment is reused only when its *entire* grounded meaning is
        unchanged.
        """
        closure = self._closure(roots, info)
        digest = hashlib.sha256(root_text.encode("utf-8"))
        for name in sorted(closure):
            digest.update(b"\x00")
            digest.update(self._print(closure[name]).encode("utf-8"))
        return digest.digest()

    # -- fragments -------------------------------------------------------------

    def _fact_fragments(self, info: ModuleInfo) -> list[_Fragment]:
        return [
            (
                self._digest(self._print(fact), [fact.body], info),
                (lambda body=fact.body: body),
            )
            for fact in info.facts
        ]

    def _target_fragment(self, index: int, info: ModuleInfo) -> _Fragment:
        command = self._commands[index]
        fixed = self._run_targets[index]
        if fixed is not None:
            return (
                self._digest(self._command_texts[index], [fixed], info),
                lambda: fixed,
            )
        # check with a named assertion: the body lives in the candidate.
        assertion = info.asserts.get(command.target)
        if assertion is None:
            raise EvaluationError(
                f"unknown assertion {command.target!r}", command.pos
            )
        digest = self._digest(
            self._command_texts[index] + "\x01" + self._print(assertion),
            [assertion],
            info,
        )
        return digest, lambda: Not(operand=assertion.body)

    def _space_for(self, command: Command) -> _ScopeSession:
        key = (
            command.default_scope,
            tuple(
                (scope.sig, scope.bound, scope.exact)
                for scope in command.sig_scopes
            ),
        )
        space = self._spaces.get(key)
        if space is None:
            space = _ScopeSession(self._info, command)
            self._spaces[key] = space
        return space

    # -- evaluation ------------------------------------------------------------

    def _compatible(self, info: ModuleInfo) -> bool:
        """Whether a candidate can share the session's structural encoding."""
        sigs = info.module.sigs
        if len(sigs) != len(self._base_sigs):
            return False
        for candidate_sig, base_sig in zip(sigs, self._base_sigs):
            if candidate_sig is base_sig:  # shared subtree: trivially equal
                continue
            if self._print(candidate_sig) != self._print(base_sig):
                return False
        return True

    def evaluate(
        self, module: Module
    ) -> tuple[list[CommandResult], bool] | None:
        """Per-command results for one candidate.

        Returns ``None`` when the candidate's signature declarations diverge
        from the base module — the caller must fall back to the from-scratch
        path.  Otherwise returns ``(results, completed)``; ``completed`` is
        ``False`` when a command errored (the candidate fails the oracle).
        """
        try:
            info = resolve_module(module)
        except (AlloyError, RecursionError):
            return [], False
        if not self._compatible(info):
            if obs.get_metrics().enabled:
                obs.counter("oracle.session.fallbacks").inc()
            return None
        facts: list[_Fragment] | None = None
        results: list[CommandResult] = []
        for index, command in enumerate(self._commands):
            start = time.perf_counter()
            try:
                if facts is None:
                    facts = self._fact_fragments(info)
                fragments = facts + [self._target_fragment(index, info)]
                sat = self._space_for(command).check(
                    info, fragments, self._conflict_limit, self
                )
            except (AlloyError, RecursionError):
                return results, False
            results.append(
                CommandResult(
                    command=command,
                    name=command.target or f"{command.kind}#anonymous",
                    kind=command.kind,
                    sat=sat,
                    instances=[],
                    solve_time=time.perf_counter() - start,
                )
            )
        return results, True
