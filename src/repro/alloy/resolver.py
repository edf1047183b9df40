"""Name resolution and arity checking for the Alloy dialect.

The resolver validates a parsed :class:`Module` and produces a
:class:`ModuleInfo` capturing the signature hierarchy, field signatures, and
callable paragraphs.  The analyzer, evaluator, and repair tools all consume
``ModuleInfo`` rather than re-deriving symbol tables.

Integer-valued expressions are given the pseudo-arity ``INT_ARITY`` (0), so a
single arity computation covers both relational and integer expressions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.alloy.errors import AlloyTypeError, ResolutionError
from repro.alloy.nodes import (
    ArrowType,
    AssertDecl,
    BinaryExpr,
    BinOp,
    Block,
    BoolBin,
    CardExpr,
    Command,
    Compare,
    CmpOp,
    Comprehension,
    Decl,
    DeclType,
    Expr,
    FactDecl,
    FieldDecl,
    Formula,
    FunCall,
    FunDecl,
    IdenExpr,
    ImpliesElse,
    IntLit,
    Let,
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
    UnaryType,
    UnivExpr,
    UnOp,
)
from repro.alloy.walk import clone

INT_ARITY = 0
"""Pseudo-arity assigned to integer-valued expressions."""


@dataclass
class SigInfo:
    """Resolved information about one signature."""

    name: str
    parent: str | None
    abstract: bool
    mult: Mult | None
    decl: SigDecl
    children: list[str] = field(default_factory=list)

    @property
    def is_top_level(self) -> bool:
        return self.parent is None


@dataclass
class FieldInfo:
    """Resolved information about one field."""

    name: str
    owner: str
    decl: FieldDecl
    columns: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass
class ModuleInfo:
    """The resolved symbol tables for a module."""

    module: Module
    sigs: dict[str, SigInfo]
    fields: dict[str, FieldInfo]
    preds: dict[str, PredDecl]
    funs: dict[str, FunDecl]
    asserts: dict[str, AssertDecl]
    facts: list[FactDecl]
    commands: list[Command]

    def top_level_sigs(self) -> list[SigInfo]:
        """Signatures with no parent, in declaration order."""
        return [info for info in self.sigs.values() if info.is_top_level]

    def descendants(self, name: str) -> list[str]:
        """All signatures at or below ``name`` in the hierarchy."""
        result = [name]
        for child in self.sigs[name].children:
            result.extend(self.descendants(child))
        return result

    def ancestors(self, name: str) -> list[str]:
        """All signatures at or above ``name`` (self first)."""
        result = [name]
        parent = self.sigs[name].parent
        while parent is not None:
            result.append(parent)
            parent = self.sigs[parent].parent
        return result

    def root_of(self, name: str) -> str:
        """The top-level ancestor of signature ``name``."""
        return self.ancestors(name)[-1]

    # -- type facts (consumed by repro.analysis) ---------------------------

    def overlapping(self, a: str, b: str) -> bool:
        """Can signatures ``a`` and ``b`` share an atom?

        True iff one is an ancestor of the other — atoms belong to a single
        chain of the hierarchy, so unrelated signatures are disjoint.
        """
        return a == b or a in self.ancestors(b) or b in self.ancestors(a)

    def meet_sigs(self, a: str, b: str) -> str | None:
        """The more specific of two overlapping signatures, else ``None``."""
        if a == b or b in self.ancestors(a):
            return a
        if a in self.ancestors(b):
            return b
        return None


class Resolver:
    """Performs resolution and arity checking for one module."""

    def __init__(self, module: Module) -> None:
        self._module = module
        self._sigs: dict[str, SigInfo] = {}
        self._fields: dict[str, FieldInfo] = {}
        self._preds: dict[str, PredDecl] = {}
        self._funs: dict[str, FunDecl] = {}
        self._asserts: dict[str, AssertDecl] = {}
        self._facts: list[FactDecl] = []
        self._commands: list[Command] = []

    def resolve(self) -> ModuleInfo:
        """Resolve the module, raising on semantic errors."""
        self._collect_sigs()
        self._collect_fields()
        self._collect_paragraphs()
        info = ModuleInfo(
            module=self._module,
            sigs=self._sigs,
            fields=self._fields,
            preds=self._preds,
            funs=self._funs,
            asserts=self._asserts,
            facts=self._facts,
            commands=self._commands,
        )
        _check_module(info)
        return info

    def _collect_sigs(self) -> None:
        for sig_decl in self._module.sigs:
            for name in sig_decl.names:
                if name in self._sigs:
                    raise ResolutionError(
                        f"duplicate signature {name!r}", sig_decl.pos
                    )
                self._sigs[name] = SigInfo(
                    name=name,
                    parent=sig_decl.parent,
                    abstract=sig_decl.abstract,
                    mult=sig_decl.mult,
                    decl=sig_decl,
                )
        for info in self._sigs.values():
            if info.parent is not None:
                if info.parent not in self._sigs:
                    raise ResolutionError(
                        f"unknown parent signature {info.parent!r}", info.decl.pos
                    )
                self._sigs[info.parent].children.append(info.name)
        for name in self._sigs:
            self._check_acyclic_hierarchy(name)

    def _check_acyclic_hierarchy(self, name: str) -> None:
        seen = {name}
        parent = self._sigs[name].parent
        while parent is not None:
            if parent in seen:
                raise ResolutionError(
                    f"cyclic signature hierarchy through {name!r}",
                    self._sigs[name].decl.pos,
                )
            seen.add(parent)
            parent = self._sigs[parent].parent

    def _collect_fields(self) -> None:
        for sig_decl in self._module.sigs:
            owner = sig_decl.names[0]
            for field_decl in sig_decl.fields:
                if field_decl.name in self._fields:
                    raise ResolutionError(
                        f"duplicate field {field_decl.name!r} "
                        "(field names must be globally unique in this dialect)",
                        field_decl.pos,
                    )
                if field_decl.name in self._sigs:
                    raise ResolutionError(
                        f"field {field_decl.name!r} shadows a signature",
                        field_decl.pos,
                    )
                columns = (owner,) + self._columns_of(field_decl.type)
                self._fields[field_decl.name] = FieldInfo(
                    name=field_decl.name,
                    owner=owner,
                    decl=field_decl,
                    columns=columns,
                )

    def _columns_of(self, decl_type: DeclType) -> tuple[str, ...]:
        if isinstance(decl_type, UnaryType):
            return (self._column_sig(decl_type.expr),)
        if isinstance(decl_type, ArrowType):
            return self._columns_of(decl_type.left) + self._columns_of(decl_type.right)
        raise ResolutionError(f"unsupported field type {decl_type!r}", decl_type.pos)

    def _column_sig(self, expr: Expr) -> str:
        """A field-type leaf must name a signature (used for bounds)."""
        if isinstance(expr, NameExpr) and expr.name in self._sigs:
            return expr.name
        if isinstance(expr, UnivExpr):
            raise ResolutionError("'univ' field columns are not supported", expr.pos)
        raise ResolutionError(
            "field type columns must be signature names", expr.pos
        )

    def _desugar_appended_facts(self) -> None:
        """Turn appended signature facts into ordinary facts.

        ``sig S {...} { F }`` becomes ``fact { all this: S | F' }`` where
        ``F'`` replaces unshadowed bare references to fields of ``S`` (or an
        ancestor) by ``this.field`` — Alloy's receiver desugaring."""
        from repro.alloy.nodes import (
            BinaryExpr,
            BinOp,
            Block,
            Decl,
            FactDecl,
            Quant,
            Quantified,
        )

        for sig_decl in self._module.sigs:
            if sig_decl.appended is None:
                continue
            sig_name = sig_decl.names[0]
            ancestors = set(self._ancestor_names(sig_name))
            own_fields = {
                name
                for name, info in self._fields.items()
                if info.owner in ancestors
            }
            body = clone(sig_decl.appended)
            _rewrite_receiver_fields(body, own_fields, shadowed=set())
            formula = Quantified(
                quant=Quant.ALL,
                decls=[Decl(names=["this"], bound=NameExpr(name=sig_name))],
                body=body,
                pos=sig_decl.pos,
            )
            self._facts.append(
                FactDecl(
                    name=f"{sig_name}_appended",
                    body=Block(formulas=[formula]),
                    pos=sig_decl.pos,
                )
            )

    def _ancestor_names(self, name: str) -> list[str]:
        result = [name]
        parent = self._sigs[name].parent
        while parent is not None:
            result.append(parent)
            parent = self._sigs[parent].parent
        return result

    def _collect_paragraphs(self) -> None:
        self._desugar_appended_facts()
        for paragraph in self._module.paragraphs:
            if isinstance(paragraph, PredDecl):
                self._declare_callable(paragraph.name, paragraph.pos)
                self._preds[paragraph.name] = paragraph
            elif isinstance(paragraph, FunDecl):
                self._declare_callable(paragraph.name, paragraph.pos)
                self._funs[paragraph.name] = paragraph
            elif isinstance(paragraph, AssertDecl):
                if paragraph.name in self._asserts:
                    raise ResolutionError(
                        f"duplicate assertion {paragraph.name!r}", paragraph.pos
                    )
                self._asserts[paragraph.name] = paragraph
            elif isinstance(paragraph, FactDecl):
                self._facts.append(paragraph)
            elif isinstance(paragraph, Command):
                self._commands.append(paragraph)

    def _declare_callable(self, name: str, pos) -> None:
        if name in self._preds or name in self._funs:
            raise ResolutionError(f"duplicate predicate/function {name!r}", pos)
        if name in self._sigs or name in self._fields:
            raise ResolutionError(
                f"predicate/function {name!r} shadows a signature or field", pos
            )


def _rewrite_receiver_fields(node, own_fields: set[str], shadowed: set[str]) -> None:
    """In-place receiver desugaring for appended signature facts.

    Replaces child ``NameExpr`` nodes naming an unshadowed own-field with
    ``this.field``; recurses with binder names added to ``shadowed``."""
    import dataclasses

    from repro.alloy.nodes import (
        BinaryExpr,
        BinOp,
        Comprehension,
        Decl,
        Let,
        Node,
        Quantified,
    )

    inner_shadowed = set(shadowed)
    if isinstance(node, (Quantified, Comprehension)):
        inner_shadowed |= {n for d in node.decls for n in d.names}
    elif isinstance(node, Let):
        inner_shadowed.add(node.name)

    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        items = value if isinstance(value, list) else [value]
        for index, item in enumerate(items):
            if not isinstance(item, Node):
                continue
            # Binder bounds are evaluated in the *outer* scope.
            child_shadowed = (
                shadowed if isinstance(node, (Quantified, Comprehension, Let))
                and f.name in ("decls", "value")
                else inner_shadowed
            )
            if (
                isinstance(item, NameExpr)
                and not item.raw
                and item.name in own_fields
                and item.name not in child_shadowed
            ):
                replacement = BinaryExpr(
                    op=BinOp.JOIN,
                    left=NameExpr(name="this", pos=item.pos),
                    right=NameExpr(name=item.name, pos=item.pos),
                    pos=item.pos,
                )
                if isinstance(value, list):
                    value[index] = replacement
                else:
                    setattr(node, f.name, replacement)
            else:
                _rewrite_receiver_fields(item, own_fields, child_shadowed)


_RESOLVE_MEMO = threading.local()

_RESOLVE_MEMO_LIMIT = 512
"""Cap on the per-thread resolution memo (entries pin module ASTs alive)."""


def resolve_module(module: Module) -> ModuleInfo:
    """Resolve and check ``module``, returning its symbol tables.

    Successful resolutions are memoized per thread by module *identity*:
    during repair the same candidate object is resolved by mutant
    generation, lint pruning, and the oracle in turn, and resolution is
    pure (``ModuleInfo`` is never mutated), so they can share one result.
    """
    memo = getattr(_RESOLVE_MEMO, "entries", None)
    if memo is None:
        memo = _RESOLVE_MEMO.entries = OrderedDict()
    entry = memo.get(id(module))
    if entry is not None and entry[0] is module:
        memo.move_to_end(id(module))
        return entry[1]
    info = Resolver(module).resolve()
    memo[id(module)] = (module, info)
    if len(memo) > _RESOLVE_MEMO_LIMIT:
        memo.popitem(last=False)
    return info


# ---------------------------------------------------------------------------
# Arity checking
# ---------------------------------------------------------------------------


def _check_module(info: ModuleInfo) -> None:
    """Arity-check every paragraph body in the module."""
    for sig in info.module.sigs:
        for field_decl in sig.fields:
            _check_decl_type(info, field_decl.type)
    for fact in info.facts:
        check_formula(info, fact.body, {})
    for pred in info.preds.values():
        env = _param_env(info, pred.params)
        check_formula(info, pred.body, env)
    for fun in info.funs.values():
        env = _param_env(info, fun.params)
        result_arity = _decl_type_arity(fun.result)
        body_arity = arity_of(info, fun.body, env)
        if body_arity != result_arity:
            raise AlloyTypeError(
                f"function {fun.name!r} body arity {body_arity} does not match "
                f"declared result arity {result_arity}",
                fun.pos,
            )
    for assertion in info.asserts.values():
        check_formula(info, assertion.body, {})
    for command in info.commands:
        _check_command(info, command)


def _check_command(info: ModuleInfo, command: Command) -> None:
    if command.target is not None:
        if command.kind == "run":
            if command.target not in info.preds:
                raise ResolutionError(
                    f"run target {command.target!r} is not a predicate", command.pos
                )
            if info.preds[command.target].params:
                raise ResolutionError(
                    f"run target {command.target!r} must take no parameters "
                    "(parameters are implicitly existential in this dialect)",
                    command.pos,
                )
        else:
            if command.target not in info.asserts:
                raise ResolutionError(
                    f"check target {command.target!r} is not an assertion",
                    command.pos,
                )
    elif command.block is not None:
        check_formula(info, command.block, {})
    for scope in command.sig_scopes:
        if scope.sig not in info.sigs:
            raise ResolutionError(
                f"scope names unknown signature {scope.sig!r}", scope.pos
            )


def _check_decl_type(info: ModuleInfo, decl_type: DeclType) -> None:
    if isinstance(decl_type, UnaryType):
        arity = arity_of(info, decl_type.expr, {})
        if arity != 1:
            raise AlloyTypeError(
                "field type columns must be unary", decl_type.pos
            )
    elif isinstance(decl_type, ArrowType):
        _check_decl_type(info, decl_type.left)
        _check_decl_type(info, decl_type.right)


def _decl_type_arity(decl_type: DeclType) -> int:
    if isinstance(decl_type, UnaryType):
        return 1
    if isinstance(decl_type, ArrowType):
        return _decl_type_arity(decl_type.left) + _decl_type_arity(decl_type.right)
    raise AlloyTypeError(f"unsupported declared type {decl_type!r}", decl_type.pos)


def _param_env(info: ModuleInfo, params: list[Decl]) -> dict[str, int]:
    env: dict[str, int] = {}
    for decl in params:
        bound_arity = arity_of(info, decl.bound, env)
        for name in decl.names:
            env[name] = bound_arity
    return env


def arity_of(info: ModuleInfo, expr: Expr, env: dict[str, int]) -> int:
    """Compute the arity of ``expr`` (``INT_ARITY`` for integer expressions).

    Raises :class:`AlloyTypeError` on arity violations and
    :class:`ResolutionError` on unknown names.
    """
    if isinstance(expr, NameExpr):
        if expr.name in env:
            return env[expr.name]
        if expr.name in info.sigs:
            return 1
        if expr.name in info.fields:
            return info.fields[expr.name].arity
        if expr.name in info.funs and not info.funs[expr.name].params:
            return _decl_type_arity(info.funs[expr.name].result)
        raise ResolutionError(f"unknown name {expr.name!r}", expr.pos)
    if isinstance(expr, (NoneExpr, UnivExpr)):
        return 1
    if isinstance(expr, IdenExpr):
        return 2
    if isinstance(expr, IntLit):
        return INT_ARITY
    if isinstance(expr, CardExpr):
        operand = arity_of(info, expr.operand, env)
        if operand == INT_ARITY:
            raise AlloyTypeError("cannot take cardinality of an integer", expr.pos)
        return INT_ARITY
    if isinstance(expr, UnaryExpr):
        operand = arity_of(info, expr.operand, env)
        if operand != 2:
            raise AlloyTypeError(
                f"{expr.op.value!r} requires a binary relation", expr.pos
            )
        return 2
    if isinstance(expr, BinaryExpr):
        return _binary_arity(info, expr, env)
    if isinstance(expr, FunCall):
        return _call_arity(info, expr, env)
    if isinstance(expr, Comprehension):
        inner = dict(env)
        total = 0
        for decl in expr.decls:
            bound_arity = arity_of(info, decl.bound, inner)
            if bound_arity != 1:
                raise AlloyTypeError(
                    "comprehension binders must range over unary sets", decl.pos
                )
            for name in decl.names:
                inner[name] = 1
                total += 1
        check_formula(info, expr.body, inner)
        return total
    raise AlloyTypeError(f"cannot type expression {expr!r}", expr.pos)


def _binary_arity(info: ModuleInfo, expr: BinaryExpr, env: dict[str, int]) -> int:
    left = arity_of(info, expr.left, env)
    right = arity_of(info, expr.right, env)
    op = expr.op
    if op in (BinOp.UNION, BinOp.DIFF):
        if left == INT_ARITY and right == INT_ARITY:
            return INT_ARITY  # integer add/sub
        if left != right:
            raise AlloyTypeError(
                f"{op.value!r} operands must have equal arity "
                f"({left} vs {right})",
                expr.pos,
            )
        return left
    if op in (BinOp.INTERSECT, BinOp.OVERRIDE):
        if left != right or left == INT_ARITY:
            raise AlloyTypeError(
                f"{op.value!r} operands must be relations of equal arity", expr.pos
            )
        return left
    if op is BinOp.JOIN:
        if left == INT_ARITY or right == INT_ARITY:
            raise AlloyTypeError("cannot join integer expressions", expr.pos)
        result = left + right - 2
        if result < 1:
            raise AlloyTypeError("join of two unary relations is ill-formed", expr.pos)
        return result
    if op is BinOp.PRODUCT:
        if left == INT_ARITY or right == INT_ARITY:
            raise AlloyTypeError("cannot form product of integers", expr.pos)
        return left + right
    if op is BinOp.DOM_RESTRICT:
        if left != 1:
            raise AlloyTypeError("domain restriction needs a unary left operand", expr.pos)
        if right == INT_ARITY:
            raise AlloyTypeError("cannot restrict an integer", expr.pos)
        return right
    if op is BinOp.RAN_RESTRICT:
        if right != 1:
            raise AlloyTypeError("range restriction needs a unary right operand", expr.pos)
        if left == INT_ARITY:
            raise AlloyTypeError("cannot restrict an integer", expr.pos)
        return left
    raise AlloyTypeError(f"unsupported operator {op!r}", expr.pos)


def _call_arity(info: ModuleInfo, expr: FunCall, env: dict[str, int]) -> int:
    if expr.name in info.funs:
        fun = info.funs[expr.name]
        _check_call_args(info, fun.params, expr.args, env, expr)
        return _decl_type_arity(fun.result)
    # Not a function: `name[args]` is sugar for joins `args... . name`.
    base_arity = arity_of(info, NameExpr(name=expr.name, pos=expr.pos), env)
    result = base_arity
    for arg in expr.args:
        arg_arity = arity_of(info, arg, env)
        if arg_arity == INT_ARITY:
            raise AlloyTypeError("cannot box-join an integer", expr.pos)
        result = result + arg_arity - 2
        if result < 1:
            raise AlloyTypeError("box join produces ill-formed arity", expr.pos)
    return result


def _check_call_args(
    info: ModuleInfo,
    params: list[Decl],
    args: list[Expr],
    env: dict[str, int],
    site: Expr | Formula,
) -> None:
    param_names = [name for decl in params for name in decl.names]
    if len(param_names) != len(args):
        raise AlloyTypeError(
            f"call expects {len(param_names)} arguments, got {len(args)}", site.pos
        )
    param_env: dict[str, int] = {}
    index = 0
    for decl in params:
        bound_arity = arity_of(info, decl.bound, param_env)
        for name in decl.names:
            param_env[name] = bound_arity
            arg_arity = arity_of(info, args[index], env)
            if arg_arity != bound_arity:
                raise AlloyTypeError(
                    f"argument {index + 1} has arity {arg_arity}, "
                    f"expected {bound_arity}",
                    site.pos,
                )
            index += 1


def check_formula(info: ModuleInfo, formula: Formula, env: dict[str, int]) -> None:
    """Arity-check a formula, raising on violations."""
    if isinstance(formula, Compare):
        left = arity_of(info, formula.left, env)
        right = arity_of(info, formula.right, env)
        if formula.op in (CmpOp.LT, CmpOp.LTE, CmpOp.GT, CmpOp.GTE):
            if left != INT_ARITY or right != INT_ARITY:
                raise AlloyTypeError(
                    f"{formula.op.value!r} requires integer operands", formula.pos
                )
        elif formula.op in (CmpOp.EQ, CmpOp.NEQ):
            if left != right:
                raise AlloyTypeError(
                    f"equality operands must have equal arity ({left} vs {right})",
                    formula.pos,
                )
        else:  # in / !in
            if left == INT_ARITY or right == INT_ARITY or left != right:
                raise AlloyTypeError(
                    "'in' operands must be relations of equal arity", formula.pos
                )
        return
    if isinstance(formula, MultTest):
        operand = arity_of(info, formula.operand, env)
        if operand == INT_ARITY:
            raise AlloyTypeError(
                "multiplicity tests apply to relations, not integers", formula.pos
            )
        return
    if isinstance(formula, Not):
        check_formula(info, formula.operand, env)
        return
    if isinstance(formula, BoolBin):
        check_formula(info, formula.left, env)
        check_formula(info, formula.right, env)
        return
    if isinstance(formula, ImpliesElse):
        check_formula(info, formula.cond, env)
        check_formula(info, formula.then, env)
        check_formula(info, formula.other, env)
        return
    if isinstance(formula, Quantified):
        inner = dict(env)
        for decl in formula.decls:
            bound_arity = arity_of(info, decl.bound, inner)
            if bound_arity != 1 and decl.mult is not Mult.SET:
                raise AlloyTypeError(
                    "quantifier binders must range over unary sets", decl.pos
                )
            for name in decl.names:
                inner[name] = bound_arity
        check_formula(info, formula.body, inner)
        return
    if isinstance(formula, Let):
        value_arity = arity_of(info, formula.value, env)
        inner = dict(env)
        inner[formula.name] = value_arity
        check_formula(info, formula.body, inner)
        return
    if isinstance(formula, PredCall):
        if formula.name not in info.preds:
            raise ResolutionError(f"unknown predicate {formula.name!r}", formula.pos)
        _check_call_args(info, info.preds[formula.name].params, formula.args, env, formula)
        return
    if isinstance(formula, Block):
        for inner_formula in formula.formulas:
            check_formula(info, inner_formula, env)
        return
    raise AlloyTypeError(f"cannot check formula {formula!r}", formula.pos)
