"""Mutation operators over specification ASTs.

These operators serve two masters: BeAFix's bounded-exhaustive search (and
ARepair's greedy sketch filling) mutate *toward* a fix, while the benchmark
generator mutates a correct specification *away* from it to inject realistic
faults.  The operator set covers the fault taxonomy the study's benchmarks
exhibit: operator swaps, quantifier swaps, multiplicity errors, dropped or
negated constraints, and wrong relation references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.alloy.errors import AlloyError
from repro.alloy.nodes import (
    BinaryExpr,
    BinOp,
    Block,
    BoolBin,
    Compare,
    CmpOp,
    Comprehension,
    Decl,
    Expr,
    FieldDecl,
    Formula,
    FunDecl,
    Let,
    LogicOp,
    Module,
    Mult,
    MultTest,
    NameExpr,
    Node,
    NoneExpr,
    Not,
    Paragraph,
    PredDecl,
    Quant,
    Quantified,
    UnaryExpr,
    UnaryType,
    UnivExpr,
    UnOp,
    AssertDecl,
    FactDecl,
)
from repro.alloy.resolver import INT_ARITY, ModuleInfo, arity_of, resolve_module
from repro.alloy.walk import Path, get_at, iter_paths, remove_at, replace_at

_CMP_SWAPS: dict[CmpOp, list[CmpOp]] = {
    CmpOp.IN: [CmpOp.EQ, CmpOp.NOT_IN],
    CmpOp.NOT_IN: [CmpOp.IN],
    CmpOp.EQ: [CmpOp.IN, CmpOp.NEQ],
    CmpOp.NEQ: [CmpOp.EQ],
    CmpOp.LT: [CmpOp.LTE, CmpOp.GT],
    CmpOp.LTE: [CmpOp.LT, CmpOp.GTE],
    CmpOp.GT: [CmpOp.GTE, CmpOp.LT],
    CmpOp.GTE: [CmpOp.GT, CmpOp.LTE],
}

_LOGIC_SWAPS: dict[LogicOp, list[LogicOp]] = {
    LogicOp.AND: [LogicOp.OR],
    LogicOp.OR: [LogicOp.AND],
    LogicOp.IMPLIES: [LogicOp.IFF, LogicOp.AND],
    LogicOp.IFF: [LogicOp.IMPLIES],
}

_QUANT_SWAPS: dict[Quant, list[Quant]] = {
    Quant.ALL: [Quant.SOME, Quant.NO],
    Quant.SOME: [Quant.ALL, Quant.NO, Quant.ONE],
    Quant.NO: [Quant.SOME, Quant.ALL],
    Quant.LONE: [Quant.ONE, Quant.SOME],
    Quant.ONE: [Quant.LONE, Quant.SOME],
}

_MULT_TEST_SWAPS: dict[Mult, list[Mult]] = {
    Mult.NO: [Mult.SOME, Mult.LONE],
    Mult.SOME: [Mult.NO, Mult.ONE, Mult.LONE],
    Mult.LONE: [Mult.ONE, Mult.NO],
    Mult.ONE: [Mult.SOME, Mult.LONE],
}

_FIELD_MULT_SWAPS: dict[Mult, list[Mult]] = {
    Mult.SET: [Mult.SOME, Mult.LONE],
    Mult.ONE: [Mult.LONE, Mult.SOME],
    Mult.LONE: [Mult.ONE, Mult.SET],
    Mult.SOME: [Mult.SET, Mult.ONE],
}

_REL_OP_SWAPS: dict[BinOp, list[BinOp]] = {
    BinOp.UNION: [BinOp.DIFF, BinOp.INTERSECT],
    BinOp.DIFF: [BinOp.UNION, BinOp.INTERSECT],
    BinOp.INTERSECT: [BinOp.UNION, BinOp.DIFF],
    BinOp.DOM_RESTRICT: [BinOp.RAN_RESTRICT],
    BinOp.RAN_RESTRICT: [BinOp.DOM_RESTRICT],
}


@dataclass(frozen=True)
class Mutant:
    """A single mutated module plus a human-readable description."""

    module: Module
    description: str
    path: Path


def body_paragraph_paths(module: Module) -> list[Path]:
    """Paths of the paragraphs whose bodies repair may touch.

    Assertions are excluded: together with the commands they form the
    property oracle, which every tool in the study treats as frozen —
    mutating an assertion would "repair" the model by weakening its own
    oracle.
    """
    paths: list[Path] = []
    for index, paragraph in enumerate(module.paragraphs):
        if isinstance(paragraph, (FactDecl, PredDecl, FunDecl)):
            paths.append((("paragraphs", index),))
    return paths


def mutation_points(module: Module) -> list[Path]:
    """Paths of every formula/expression node inside repairable bodies,
    plus every field declaration (for multiplicity mutations)."""
    points: list[Path] = []
    for para_path in body_paragraph_paths(module):
        paragraph = get_at(module, para_path)
        for sub_path, node in iter_paths(paragraph):
            if isinstance(node, (Formula, Expr, FieldDecl)):
                points.append(para_path + sub_path)
    for index, paragraph in enumerate(module.paragraphs):
        if hasattr(paragraph, "fields"):
            for f_index, _ in enumerate(paragraph.fields):
                points.append((("paragraphs", index), ("fields", f_index)))
    return points


def scope_env_at(module: Module, info: ModuleInfo, path: Path) -> dict[str, int]:
    """Arity environment of variables bound above the node at ``path``."""
    env: dict[str, int] = {}
    node: Node = module
    for step in path:
        if isinstance(node, (PredDecl, FunDecl)):
            _extend_env_with_decls(info, node.params, env)
        if isinstance(node, (Quantified, Comprehension)):
            _extend_env_with_decls(info, node.decls, env)
        if isinstance(node, Let):
            try:
                env[node.name] = arity_of(info, node.value, env)
            except AlloyError:
                env[node.name] = 1
        field_name, index = step
        value = getattr(node, field_name)
        node = value if index is None else value[index]
    return env


def _extend_env_with_decls(
    info: ModuleInfo, decls: list[Decl], env: dict[str, int]
) -> None:
    for decl in decls:
        try:
            bound_arity = arity_of(info, decl.bound, env)
        except AlloyError:
            bound_arity = 1
        for name in decl.names:
            env[name] = bound_arity


def _candidate_names(
    info: ModuleInfo, env: dict[str, int], arity: int
) -> list[str]:
    """Names (sigs, fields, in-scope variables) with a given arity."""
    names = [s for s in info.sigs if arity == 1]
    names.extend(f for f, fi in info.fields.items() if fi.arity == arity)
    names.extend(v for v, a in env.items() if a == arity)
    return names


class Mutator:
    """Generates type-correct single mutations of one module.

    With ``prune=True`` (the repair tools opt in; fault injection and the
    mock LLM do not, keeping their candidate streams byte-stable) each
    resolving mutant is additionally vetted by the static lint engine:
    mutants that *introduce* a semantically dead construct relative to the
    base module are dropped before any translation or solver call, counted
    under the ``analysis.pruned_typed`` metric.
    """

    def __init__(
        self,
        module: Module,
        info: ModuleInfo,
        *,
        prune: bool = False,
        candidate_filter: "object | None" = None,
    ) -> None:
        self._module = module
        self._info = info
        self._prune = prune or candidate_filter is not None
        self._filter = candidate_filter

    def _veto(self, mutated: Module) -> "object | None":
        """The new prunable finding a mutant introduces, else ``None``."""
        if not self._prune:
            return None
        from repro.analysis.prune import CandidateFilter

        if self._filter is None:
            self._filter = CandidateFilter(self._module, self._info)
        return self._filter.veto(mutated)

    def mutants_at(self, path: Path) -> Iterator[Mutant]:
        """All single mutations of the node at ``path`` that still resolve
        (and, when pruning, are not statically dead)."""
        node = get_at(self._module, path)
        for replacement, description in self._proposals(node, path):
            if replacement is _REMOVE:
                try:
                    mutated = remove_at(self._module, path)
                except ValueError:
                    continue
            else:
                mutated = replace_at(self._module, path, replacement)
            try:
                resolve_module(mutated)
            except (AlloyError, RecursionError):
                continue
            diagnostic = self._veto(mutated)
            if diagnostic is not None:
                from repro.analysis.prune import record_pruned

                record_pruned(diagnostic)
                continue
            yield Mutant(module=mutated, description=description, path=path)

    def all_mutants(
        self, paths: list[Path] | None = None, limit: int | None = None
    ) -> Iterator[Mutant]:
        """Single mutants at the given points (default: everywhere)."""
        count = 0
        seen: set[str] = set()
        from repro.alloy.pretty import print_module

        for path in paths if paths is not None else mutation_points(self._module):
            for mutant in self.mutants_at(path):
                text = print_module(mutant.module)
                if text in seen:
                    continue
                seen.add(text)
                yield mutant
                count += 1
                if limit is not None and count >= limit:
                    return

    # -- proposals per node type ------------------------------------------------

    def _proposals(
        self, node: Node, path: Path
    ) -> Iterator[tuple[Node, str]]:
        if isinstance(node, Compare):
            yield from self._compare_proposals(node)
        if isinstance(node, BoolBin):
            yield from self._bool_proposals(node)
        if isinstance(node, Quantified):
            yield from self._quant_proposals(node)
        if isinstance(node, MultTest):
            yield from self._mult_test_proposals(node)
        if isinstance(node, Not):
            yield node.operand, "drop negation"
        if isinstance(node, Formula) and not isinstance(node, (Block, Not)):
            yield Not(operand=node), "negate formula"
            if path and path[-1][1] is not None and _inside_block(self._module, path):
                yield _REMOVE, "drop conjunct"
        if isinstance(node, BinaryExpr):
            yield from self._binary_expr_proposals(node)
        if isinstance(node, UnaryExpr):
            yield from self._unary_expr_proposals(node)
        if isinstance(node, NameExpr):
            yield from self._name_proposals(node, path)
        if isinstance(node, FieldDecl):
            yield from self._field_decl_proposals(node)

    def _compare_proposals(self, node: Compare) -> Iterator[tuple[Node, str]]:
        for op in _CMP_SWAPS.get(node.op, []):
            replacement = Compare(op=op, left=node.left, right=node.right)
            yield replacement, f"compare {node.op.value} -> {op.value}"
        if node.op in (CmpOp.IN, CmpOp.EQ):
            swapped = Compare(op=node.op, left=node.right, right=node.left)
            yield swapped, f"swap operands of {node.op.value}"

    def _bool_proposals(self, node: BoolBin) -> Iterator[tuple[Node, str]]:
        for op in _LOGIC_SWAPS.get(node.op, []):
            replacement = BoolBin(op=op, left=node.left, right=node.right)
            yield replacement, f"logic {node.op.value} -> {op.value}"
        if node.op is LogicOp.IMPLIES:
            flipped = BoolBin(op=node.op, left=node.right, right=node.left)
            yield flipped, "swap implication sides"
        yield node.left, "keep only left conjunct/disjunct"
        yield node.right, "keep only right conjunct/disjunct"

    def _quant_proposals(self, node: Quantified) -> Iterator[tuple[Node, str]]:
        for quant in _QUANT_SWAPS.get(node.quant, []):
            replacement = Quantified(
                quant=quant, decls=node.decls, body=node.body
            )
            yield replacement, f"quantifier {node.quant.value} -> {quant.value}"

    def _mult_test_proposals(self, node: MultTest) -> Iterator[tuple[Node, str]]:
        for mult in _MULT_TEST_SWAPS.get(node.mult, []):
            replacement = MultTest(mult=mult, operand=node.operand)
            yield replacement, f"multiplicity {node.mult.value} -> {mult.value}"

    def _binary_expr_proposals(self, node: BinaryExpr) -> Iterator[tuple[Node, str]]:
        for op in _REL_OP_SWAPS.get(node.op, []):
            replacement = BinaryExpr(op=op, left=node.left, right=node.right)
            yield replacement, f"operator {node.op.value} -> {op.value}"
        if node.op in (BinOp.JOIN, BinOp.PRODUCT):
            swapped = BinaryExpr(op=node.op, left=node.right, right=node.left)
            yield swapped, f"swap operands of {node.op.value}"
        if node.op in (BinOp.UNION, BinOp.DIFF, BinOp.INTERSECT):
            yield node.left, "keep left operand"
            yield node.right, "keep right operand"

    def _unary_expr_proposals(self, node: UnaryExpr) -> Iterator[tuple[Node, str]]:
        if node.op is UnOp.CLOSURE:
            yield UnaryExpr(op=UnOp.RCLOSURE, operand=node.operand), "^ -> *"
            yield node.operand, "drop closure"
        elif node.op is UnOp.RCLOSURE:
            yield UnaryExpr(op=UnOp.CLOSURE, operand=node.operand), "* -> ^"
            yield node.operand, "drop closure"
        elif node.op is UnOp.TRANSPOSE:
            yield node.operand, "drop transpose"

    def _name_proposals(
        self, node: NameExpr, path: Path
    ) -> Iterator[tuple[Node, str]]:
        env = scope_env_at(self._module, self._info, path)
        try:
            arity = arity_of(self._info, node, env)
        except AlloyError:
            return
        if arity == INT_ARITY:
            return
        for name in _candidate_names(self._info, env, arity):
            if name != node.name:
                yield NameExpr(name=name), f"name {node.name} -> {name}"
        if arity == 1:
            yield NoneExpr(), f"name {node.name} -> none"
            yield UnivExpr(), f"name {node.name} -> univ"
        if arity == 2:
            yield (
                UnaryExpr(op=UnOp.TRANSPOSE, operand=NameExpr(name=node.name)),
                f"transpose {node.name}",
            )
            yield (
                UnaryExpr(op=UnOp.CLOSURE, operand=NameExpr(name=node.name)),
                f"closure of {node.name}",
            )

    def _field_decl_proposals(self, node: FieldDecl) -> Iterator[tuple[Node, str]]:
        if not isinstance(node.type, UnaryType):
            return
        for mult in _FIELD_MULT_SWAPS.get(node.type.mult, []):
            new_type = UnaryType(mult=mult, expr=node.type.expr)
            replacement = FieldDecl(name=node.name, type=new_type)
            yield (
                replacement,
                f"field {node.name}: {node.type.mult.value} -> {mult.value}",
            )


_REMOVE = object()
"""Sentinel: the proposal removes the node from its parent list."""


def _inside_block(module: Module, path: Path) -> bool:
    if len(path) < 2:
        return False
    parent = get_at(module, path[:-1])
    return isinstance(parent, Block) and len(parent.formulas) > 1


def higher_order_mutants(
    module: Module,
    info: ModuleInfo,
    paths: list[Path],
    depth: int,
    limit: int | None = None,
    *,
    prune: bool = False,
) -> Iterator[Mutant]:
    """Mutants combining up to ``depth`` single mutations at distinct points.

    This is BeAFix's bounded-exhaustive candidate space.  Combinations are
    generated by re-mutating each depth-(k-1) mutant at a strictly later
    point, so each combination is produced once.

    With ``prune=True`` a statically dead depth-k mutant is dropped *and*
    never enters the depth-(k+1) frontier, cutting the whole subtree it
    would have rooted — the pruning that makes bounded-exhaustive search
    tractable.  The veto baseline is the original module, so pre-existing
    findings in the faulty spec never block its own repair.
    """
    shared_filter = None
    if prune:
        from repro.analysis.prune import CandidateFilter

        shared_filter = CandidateFilter(module, info)
    count = 0
    frontier: list[tuple[Module, int, str]] = [(module, -1, "")]
    for _ in range(depth):
        next_frontier: list[tuple[Module, int, str]] = []
        for base, last_index, description in frontier:
            try:
                base_info = resolve_module(base)
            except (AlloyError, RecursionError):
                continue
            mutator = Mutator(base, base_info, candidate_filter=shared_filter)
            for point_index, path in enumerate(paths):
                if point_index <= last_index:
                    continue
                try:
                    # Paths were computed on the original module; an earlier
                    # mutation may have reshaped the tree (e.g. wrapped a
                    # formula in a negation), invalidating later paths.
                    mutants = list(mutator.mutants_at(path))
                except (AttributeError, IndexError, TypeError):
                    continue
                for mutant in mutants:
                    combined = (
                        f"{description}; {mutant.description}"
                        if description
                        else mutant.description
                    )
                    yield Mutant(
                        module=mutant.module, description=combined, path=path
                    )
                    next_frontier.append((mutant.module, point_index, combined))
                    count += 1
                    if limit is not None and count >= limit:
                        return
        frontier = next_frontier
