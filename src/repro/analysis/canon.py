"""Semantic canonicalization of candidate modules for oracle dedup.

Repair generators emit floods of candidates that differ syntactically but
not semantically: renamed binders, reordered commutative operands, double
negations, unions with a statically-empty arm.  Each duplicate costs a
full oracle evaluation.  :func:`canonical_key` maps a module to a hash of
its *normal form* so the oracle can check one representative per
equivalence class and replay the verdict for the rest.

The normal form is a deterministic s-expression rendering with:

- alpha-renamed binders (``v0``, ``v1``, … in binding order),
- commutative operands (``+ & and or iff``, ``=``/``!=`` sides) flattened,
  sorted, and deduplicated,
- double-negation / double-transpose / nested-closure elimination,
- constant folding driven by :mod:`repro.analysis.cardinality`:
  statically-empty expressions become ``∅``, statically-decided
  comparisons and multiplicity tests become ``⊤``/``⊥``, and boolean
  identities propagate them upward.

Every rewrite preserves semantics in *all* instances at all scopes, so
canonically-equal candidates are guaranteed to receive identical oracle
verdicts — the property the dedup cache and its byte-equality tests
depend on.  Canonicalization failures degrade to the exact printed text,
which still deduplicates syntactic duplicates.

Dedup is always on, under a chaos scope too.  It cannot change outcomes,
only the work needed to reach them; the tests pin that by comparing whole
matrices against an arm that solves every candidate.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.alloy.nodes import (
    AssertDecl,
    BinaryExpr,
    BinOp,
    Block,
    BoolBin,
    CardExpr,
    CmpOp,
    Command,
    Compare,
    Comprehension,
    Decl,
    Expr,
    FactDecl,
    Formula,
    FunCall,
    FunDecl,
    IdenExpr,
    ImpliesElse,
    IntLit,
    Let,
    LogicOp,
    Module,
    Mult,
    MultTest,
    NameExpr,
    NoneExpr,
    Not,
    PredCall,
    PredDecl,
    Quantified,
    SigDecl,
    UnaryExpr,
    UnivExpr,
    UnOp,
)
from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.alloy.resolver import ModuleInfo, resolve_module
from repro.analysis.cardinality import (
    SCALAR,
    CardinalityAnalyzer,
    Interval,
    cardinality_analyzer,
    _MULT_INTERVALS,
)

_STATE = threading.local()

T = TypeVar("T")

TRUE = "⊤"
FALSE = "⊥"
EMPTY = "∅"

_FLIPPED = {CmpOp.GT: CmpOp.LT, CmpOp.GTE: CmpOp.LTE}


def shared_verdicts() -> dict | None:
    """The shard-scoped oracle cache, when :func:`verdict_sharing` is active.

    ``None`` means no sharing scope is installed and each
    :class:`~repro.repair.base.PropertyOracle` falls back to its private
    per-task cache.
    """
    return getattr(_STATE, "shared_verdicts", None)


@contextmanager
def verdict_sharing() -> Iterator[None]:
    """Share oracle results across every tool run in the dynamic extent.

    The experiment engine runs each shard's techniques sequentially over
    the *same* task, so BeAFix, ATR, and the inner tools ICEBAR spawns all
    re-derive the same facts: the task's failing evidence, and verdicts
    for candidates that several generators emit.
    Installing this scope around a shard lets :class:`PropertyOracle`
    instances publish those results into one dictionary keyed by the task
    fingerprint — verdicts under the candidate's canonical form,
    instance-producing evidence under the exact printed text (instances
    depend on the encoding, so only syntactic identity may share them).

    The same dictionary carries the shard's other answers that are pure
    functions of exact texts (see :func:`shard_memo`): the truth's parse
    and suite enumerations (:mod:`repro.testing.generation`), AUnit
    verdicts per printed candidate (:class:`repro.testing.aunit.TestSuite`)
    and REP/TM/SM per final text (:func:`repro.experiments.runner.run_spec`).

    The scope is per-shard (one spec), so the cache's lifetime bounds its
    size.  It is thread-local, and a chaos scope uses it like any other
    run.
    """
    previous = getattr(_STATE, "shared_verdicts", None)
    _STATE.shared_verdicts = {}
    try:
        yield
    finally:
        _STATE.shared_verdicts = previous


def shard_memo(key: tuple, compute: Callable[[], T]) -> T:
    """``compute()``, answered once per ``key`` inside a sharing scope.

    Outside :func:`verdict_sharing` every call computes.  A ``compute``
    that raises stores nothing, so the next caller computes again."""
    cache = shared_verdicts()
    if cache is None:
        return compute()
    try:
        return cache[key]
    except KeyError:
        value = cache[key] = compute()
        return value


def shared_parse(text: str) -> Module:
    """``text`` parsed once per sharing scope (the shard's ground truth is
    read by the truth oracle, the suite generators and every cell's REP
    and SM).  Callers must not mutate the module."""
    return shard_memo(("parse", text), lambda: parse_module(text))


def canonical_key(module: Module, info: ModuleInfo | None = None) -> str | None:
    """A stable hash of the module's semantic normal form.

    Falls back to hashing the printed text when normalization fails, and
    to ``None`` (caller skips dedup) when even printing fails.
    """
    try:
        text = canonical_text(module, info)
    except Exception:
        try:
            text = "raw:" + print_module(module)
        except Exception:
            return None
    return hashlib.sha256(text.encode("utf-8", "replace")).hexdigest()


def canonical_text(module: Module, info: ModuleInfo | None = None) -> str:
    """The normal form itself (tests and debugging; callers hash it)."""
    if info is None:
        info = resolve_module(module)
    return _Canonicalizer(cardinality_analyzer(info)).module_text(module)


def record_dedup_hit(count: int = 1) -> None:
    """Count oracle queries replayed from the dedup cache.

    Evidence replays save one solver command run per replayed query, so
    they pass the number of queries they skipped; plain verdict replays
    count one.  The ambient technique label (installed by ``RepairTool``)
    attributes the hits to BeAFix/ATR/… in traces and ``repro profile``."""
    from repro import obs

    obs.counter("analysis.dedup_hits").inc(count)


class _Canonicalizer:
    """One normalization pass; stateless between paragraphs."""

    def __init__(self, cards: CardinalityAnalyzer) -> None:
        self._cards = cards

    # -- module ---------------------------------------------------------------

    def module_text(self, module: Module) -> str:
        sigs: list[str] = []
        facts: list[str] = []
        named: list[str] = []
        commands: list[str] = []
        for paragraph in module.paragraphs:
            if isinstance(paragraph, SigDecl):
                sigs.append(self._sig(paragraph))
            elif isinstance(paragraph, FactDecl):
                body = self._formula(paragraph.body, {}, {})
                if body != TRUE:
                    facts.append(f"(fact {body})")
            elif isinstance(paragraph, PredDecl):
                named.append(self._callable("pred", paragraph.name, paragraph.params, paragraph.body))
            elif isinstance(paragraph, FunDecl):
                env, ienv = self._param_envs(paragraph.params)
                body = self._expr(paragraph.body, env, ienv)
                params = self._decls(paragraph.params, env, ienv, rebind=False)
                named.append(f"(fun {paragraph.name} {params} {body})")
            elif isinstance(paragraph, AssertDecl):
                body = self._formula(paragraph.body, {}, {})
                named.append(f"(assert {paragraph.name} {body})")
            elif isinstance(paragraph, Command):
                commands.append(self._command(paragraph))
        # Fact order is semantically irrelevant (conjunction); sorting makes
        # reordered candidates collide.  Named paragraphs sort by name.
        facts.sort()
        named.sort()
        return "\n".join(sigs + facts + named + commands)

    def _sig(self, sig: SigDecl) -> str:
        fields = []
        for field_decl in sig.fields:
            fields.append(f"({field_decl.name} {self._decl_type(field_decl.type)})")
        appended = ""
        if sig.appended is not None:
            body = self._formula(sig.appended, {}, {})
            if body != TRUE:
                appended = f" {body}"
        mult = sig.mult.value if sig.mult else "set"
        parent = sig.parent or ""
        names = ",".join(sig.names)
        return (
            f"(sig {names} {mult} abstract={int(sig.abstract)} "
            f"parent={parent} [{' '.join(sorted(fields))}]{appended})"
        )

    def _decl_type(self, decl_type) -> str:
        from repro.alloy.nodes import ArrowType, UnaryType

        if isinstance(decl_type, UnaryType):
            return f"{decl_type.mult.value} {self._expr(decl_type.expr, {}, {})}"
        if isinstance(decl_type, ArrowType):
            return (
                f"({self._decl_type(decl_type.left)} {decl_type.left_mult.value}"
                f"->{decl_type.right_mult.value} {self._decl_type(decl_type.right)})"
            )
        return "?"

    def _callable(self, kind: str, name: str, params: list[Decl], body: Block) -> str:
        env, ienv = self._param_envs(params)
        rendered = self._formula(body, env, ienv)
        decls = self._decls(params, env, ienv, rebind=False)
        return f"({kind} {name} {decls} {rendered})"

    def _command(self, command: Command) -> str:
        scopes = ",".join(
            f"{s.sig}={'exactly ' if s.exact else ''}{s.bound}"
            for s in sorted(command.sig_scopes, key=lambda s: s.sig)
        )
        block = ""
        if command.block is not None:
            block = " " + self._formula(command.block, {}, {})
        return (
            f"(cmd {command.kind} {command.target or ''} scope={command.default_scope}"
            f" [{scopes}] expect={command.expect}{block})"
        )

    def _param_envs(self, params: list[Decl]):
        env: dict[str, str] = {}
        ienv: dict[str, Interval] = {}
        for decl in params:
            for name in decl.names:
                # Parameters keep their names: call sites reference them
                # positionally only through the declaration, and renaming
                # them would merge preds whose arities/type bounds differ.
                env[name] = name
                ienv[name] = SCALAR if decl.mult in (None, Mult.ONE) else _MULT_INTERVALS.get(decl.mult, Interval(0, None))
        return env, ienv

    def _decls(
        self,
        decls: list[Decl],
        env: dict[str, str],
        ienv: dict[str, Interval],
        *,
        rebind: bool,
    ) -> str:
        parts = []
        for decl in decls:
            bound = self._expr(decl.bound, env, ienv)
            names = ",".join(
                env.get(name, name) if not rebind else env[name]
                for name in decl.names
            )
            mult = decl.mult.value if decl.mult else "one"
            disj = "disj " if decl.disj else ""
            parts.append(f"({disj}{names}: {mult} {bound})")
        return "[" + " ".join(parts) + "]"

    # -- formulas -------------------------------------------------------------

    def _formula(
        self, formula: Formula, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        if isinstance(formula, Compare):
            return self._compare(formula, env, ienv)
        if isinstance(formula, MultTest):
            return self._mult_test(formula, env, ienv)
        if isinstance(formula, Not):
            inner = self._formula(formula.operand, env, ienv)
            return _negate(inner)
        if isinstance(formula, BoolBin):
            return self._bool_bin(formula, env, ienv)
        if isinstance(formula, ImpliesElse):
            cond = self._formula(formula.cond, env, ienv)
            then = self._formula(formula.then, env, ienv)
            other = self._formula(formula.other, env, ienv)
            if cond == TRUE:
                return then
            if cond == FALSE:
                return other
            if then == other:
                return then
            return f"(ite {cond} {then} {other})"
        if isinstance(formula, Quantified):
            return self._quantified(formula, env, ienv)
        if isinstance(formula, Let):
            value = self._expr(formula.value, env, ienv)
            inner_env = dict(env)
            inner_env[formula.name] = value
            inner_ienv = dict(ienv)
            inner_ienv[formula.name] = self._cards.interval_of(
                formula.value, ienv
            )
            # Lets are inlined by substitution: `let x = e | f` and the
            # directly-substituted body normalize identically.
            return self._formula(formula.body, inner_env, inner_ienv)
        if isinstance(formula, PredCall):
            args = " ".join(self._expr(a, env, ienv) for a in formula.args)
            return f"(call {formula.name} {args})"
        if isinstance(formula, Block):
            parts = [self._formula(f, env, ienv) for f in formula.formulas]
            return _fold_and(parts)
        return "(?formula)"

    def _compare(
        self, formula: Compare, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        verdict = self._cards.truth(formula, ienv)
        if verdict is True:
            return TRUE
        if verdict is False:
            return FALSE
        op = formula.op
        left_node, right_node = formula.left, formula.right
        if op in _FLIPPED:
            op = _FLIPPED[op]
            left_node, right_node = right_node, left_node
        left = self._expr(left_node, env, ienv)
        right = self._expr(right_node, env, ienv)
        if op in (CmpOp.EQ, CmpOp.NEQ) and right < left:
            left, right = right, left
        if op is CmpOp.EQ and left == right:
            return TRUE
        if op is CmpOp.NEQ and left == right:
            return FALSE
        if op is CmpOp.IN:
            if left == EMPTY:
                return TRUE
            if left == right:
                return TRUE
        if op is CmpOp.NOT_IN:
            if left == EMPTY:
                return FALSE
            if left == right:
                return FALSE
        if op is CmpOp.EQ and right == EMPTY:
            return f"(no {left})"
        if op is CmpOp.NEQ and right == EMPTY:
            return f"(some {left})"
        return f"({op.value} {left} {right})"

    def _mult_test(
        self, formula: MultTest, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        verdict = self._cards.truth(formula, ienv)
        if verdict is True:
            return TRUE
        if verdict is False:
            return FALSE
        operand = self._expr(formula.operand, env, ienv)
        if operand == EMPTY:
            return TRUE if formula.mult in (Mult.NO, Mult.LONE) else FALSE
        return f"({formula.mult.value} {operand})"

    def _bool_bin(
        self, formula: BoolBin, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        left = self._formula(formula.left, env, ienv)
        right = self._formula(formula.right, env, ienv)
        op = formula.op
        if op is LogicOp.AND:
            return _fold_and([left, right])
        if op is LogicOp.OR:
            return _fold_or([left, right])
        if op is LogicOp.IMPLIES:
            if left == TRUE:
                return right
            if left == FALSE or right == TRUE:
                return TRUE
            if right == FALSE:
                return _negate(left)
            return f"(=> {left} {right})"
        if op is LogicOp.IFF:
            if left == right:
                return TRUE
            if left == TRUE:
                return right
            if right == TRUE:
                return left
            if left == FALSE:
                return _negate(right)
            if right == FALSE:
                return _negate(left)
            first, second = sorted((left, right))
            return f"(<=> {first} {second})"
        return f"({op.value} {left} {right})"

    def _quantified(
        self, formula: Quantified, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        inner_env = dict(env)
        inner_ienv = dict(ienv)
        rendered_decls = []
        for decl in formula.decls:
            bound = self._expr(decl.bound, inner_env, inner_ienv)
            names = []
            for name in decl.names:
                fresh = f"v{len(inner_env)}"
                inner_env[name] = fresh
                inner_ienv[name] = CardinalityAnalyzer._binder_interval(decl)
                names.append(fresh)
            mult = decl.mult.value if decl.mult else "one"
            disj = "disj " if decl.disj else ""
            rendered_decls.append(f"({disj}{','.join(names)}: {mult} {bound})")
        body = self._formula(formula.body, inner_env, inner_ienv)
        verdict = self._cards.truth(formula, ienv)
        if verdict is True:
            return TRUE
        if verdict is False:
            return FALSE
        return f"({formula.quant.value} [{' '.join(rendered_decls)}] {body})"

    # -- expressions ----------------------------------------------------------

    def _expr(
        self, expr: Expr, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        if isinstance(expr, NameExpr):
            renamed = env.get(expr.name, expr.name)
            if renamed == expr.name and self._statically_empty(expr, ienv):
                return EMPTY
            return renamed
        if isinstance(expr, NoneExpr):
            return EMPTY
        if isinstance(expr, UnivExpr):
            return "univ"
        if isinstance(expr, IdenExpr):
            return "iden"
        if isinstance(expr, IntLit):
            return str(expr.value)
        if isinstance(expr, CardExpr):
            operand = self._expr(expr.operand, env, ienv)
            if operand == EMPTY:
                return "0"
            interval = self._cards.interval_of(expr.operand, ienv)
            if interval.lo == interval.hi:
                return str(interval.lo)
            return f"(# {operand})"
        if isinstance(expr, UnaryExpr):
            return self._unary(expr, env, ienv)
        if isinstance(expr, BinaryExpr):
            return self._binary(expr, env, ienv)
        if isinstance(expr, FunCall):
            args = " ".join(self._expr(a, env, ienv) for a in expr.args)
            return f"(apply {expr.name} {args})" if args else f"(apply {expr.name})"
        if isinstance(expr, Comprehension):
            inner_env = dict(env)
            inner_ienv = dict(ienv)
            decls = []
            for decl in expr.decls:
                bound = self._expr(decl.bound, inner_env, inner_ienv)
                names = []
                for name in decl.names:
                    fresh = f"v{len(inner_env)}"
                    inner_env[name] = fresh
                    inner_ienv[name] = SCALAR
                    names.append(fresh)
                disj = "disj " if decl.disj else ""
                decls.append(f"({disj}{','.join(names)}: {bound})")
            body = self._formula(expr.body, inner_env, inner_ienv)
            if body == FALSE:
                return EMPTY
            return f"(set [{' '.join(decls)}] {body})"
        return "(?expr)"

    def _statically_empty(self, expr: Expr, ienv: dict[str, Interval]) -> bool:
        try:
            return self._cards.interval_of(expr, ienv).is_empty
        except Exception:
            return False

    def _unary(
        self, expr: UnaryExpr, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        operand = self._expr(expr.operand, env, ienv)
        if expr.op is UnOp.TRANSPOSE:
            if operand == EMPTY:
                return EMPTY
            if operand == "iden":
                return "iden"
            if operand.startswith("(~ "):
                return operand[3:-1]
            return f"(~ {operand})"
        if expr.op is UnOp.CLOSURE:
            if operand == EMPTY:
                return EMPTY
            if operand.startswith("(^ ") or operand.startswith("(* "):
                return operand
            return f"(^ {operand})"
        # *r = ^r + iden
        if operand == EMPTY or operand == "iden":
            return "iden"
        if operand.startswith("(* "):
            return operand
        if operand.startswith("(^ "):
            return f"(* {operand[3:-1]})"
        return f"(* {operand})"

    def _binary(
        self, expr: BinaryExpr, env: dict[str, str], ienv: dict[str, Interval]
    ) -> str:
        if self._statically_empty(expr, ienv):
            return EMPTY
        left = self._expr(expr.left, env, ienv)
        right = self._expr(expr.right, env, ienv)
        op = expr.op
        if op is BinOp.UNION:
            parts = sorted(
                set(_flatten("(+ ", left) + _flatten("(+ ", right)) - {EMPTY}
            )
            if not parts:
                return EMPTY
            if len(parts) == 1:
                return parts[0]
            return "(+ " + " ".join(parts) + ")"
        if op is BinOp.INTERSECT:
            if left == EMPTY or right == EMPTY:
                return EMPTY
            parts = sorted(set(_flatten("(& ", left) + _flatten("(& ", right)))
            if len(parts) == 1:
                return parts[0]
            return "(& " + " ".join(parts) + ")"
        if op is BinOp.DIFF:
            if left == EMPTY or left == right:
                return EMPTY
            if right == EMPTY:
                return left
            return f"(- {left} {right})"
        if op is BinOp.JOIN:
            if left == EMPTY or right == EMPTY:
                return EMPTY
            if left == "iden":
                return right
            if right == "iden":
                return left
            return f"(. {left} {right})"
        if op is BinOp.PRODUCT:
            if left == EMPTY or right == EMPTY:
                return EMPTY
            return f"(-> {left} {right})"
        if op is BinOp.OVERRIDE:
            if right == EMPTY:
                return left
            if left == EMPTY or left == right:
                return right
            return f"(++ {left} {right})"
        if op is BinOp.DOM_RESTRICT:
            if left == EMPTY or right == EMPTY:
                return EMPTY
            if left == "univ":
                return right
            return f"(<: {left} {right})"
        if op is BinOp.RAN_RESTRICT:
            if left == EMPTY or right == EMPTY:
                return EMPTY
            if right == "univ":
                return left
            return f"(:> {left} {right})"
        return f"({op.value} {left} {right})"


def _negate(inner: str) -> str:
    if inner == TRUE:
        return FALSE
    if inner == FALSE:
        return TRUE
    if inner.startswith("(! "):
        return inner[3:-1]
    return f"(! {inner})"


def _flatten(prefix: str, rendered: str) -> list[str]:
    """Split a same-operator s-expression back into operands (one level is
    enough: operands were themselves flattened when built)."""
    if not rendered.startswith(prefix):
        return [rendered]
    parts: list[str] = []
    depth = 0
    token = ""
    for char in rendered[len(prefix) : -1]:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == " " and depth == 0:
            if token:
                parts.append(token)
            token = ""
        else:
            token += char
    if token:
        parts.append(token)
    return parts


def _fold_and(parts: list[str]) -> str:
    flat: list[str] = []
    for part in parts:
        flat.extend(_flatten("(and ", part))
    unique = sorted(set(flat) - {TRUE})
    if FALSE in unique:
        return FALSE
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    return "(and " + " ".join(unique) + ")"


def _fold_or(parts: list[str]) -> str:
    flat: list[str] = []
    for part in parts:
        flat.extend(_flatten("(or ", part))
    unique = sorted(set(flat) - {FALSE})
    if TRUE in unique:
        return TRUE
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    return "(or " + " ".join(unique) + ")"
