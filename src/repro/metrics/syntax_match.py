"""Syntax Match (SM): parse-tree similarity via a subtree kernel.

The study computes SM by parsing both specifications (ignoring whitespace
and other analyzer-irrelevant differences) and comparing the parse trees with
a subtree kernel (Gärtner et al., 2003).  We serialize every subtree of each
AST to a canonical shape string, count them as multisets, and report the
normalized kernel

    K(a, b) / sqrt(K(a, a) * K(b, b))

which is 1 for structurally identical trees and 0 when no ground-truth
subtree occurs in the candidate.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.alloy.errors import AlloyError
from repro.alloy.nodes import (
    BinaryExpr,
    BoolBin,
    Compare,
    IntLit,
    Module,
    MultTest,
    NameExpr,
    Node,
    Quantified,
    SigDecl,
    UnaryExpr,
    UnaryType,
)
from repro.alloy.parser import parse_module
from repro.analysis.canon import shard_memo, shared_parse


def _label(node: Node) -> str:
    """The node kind plus the discriminating attributes the Alloy Analyzer
    cares about (operators, quantifiers, names, multiplicities)."""
    label = type(node).__name__
    if isinstance(node, NameExpr):
        label += f":{node.name}"
    elif isinstance(node, IntLit):
        label += f":{node.value}"
    elif isinstance(node, (BinaryExpr, BoolBin, Compare)):
        label += f":{node.op.value}"
    elif isinstance(node, UnaryExpr):
        label += f":{node.op.value}"
    elif isinstance(node, Quantified):
        label += f":{node.quant.value}"
    elif isinstance(node, MultTest):
        label += f":{node.mult.value}"
    elif isinstance(node, UnaryType):
        label += f":{node.mult.value}"
    elif isinstance(node, SigDecl):
        label += ":" + ",".join(node.names)
    elif hasattr(node, "name") and isinstance(getattr(node, "name"), str):
        label += f":{getattr(node, 'name')}"
    return label


def _shape(node: Node, seen: Counter | None) -> str:
    """Bottom-up serialization: each child's shape is built once and reused
    by its parent; with ``seen``, every subtree's shape is also counted."""
    children = ",".join(_shape(child, seen) for child in node.children())
    shape = f"{_label(node)}({children})"
    if seen is not None:
        seen[shape] += 1
    return shape


def subtree_shape(node: Node) -> str:
    """A canonical serialization of the subtree rooted at ``node``.

    The shape captures the node's label and the shapes of all children —
    but no positions or formatting.
    """
    return _shape(node, None)


def subtree_multiset(module: Module) -> Counter:
    """Multiset of all subtree shapes in a module's AST, built in one
    bottom-up pass."""
    shapes: Counter = Counter()
    _shape(module, shapes)
    return shapes


def kernel(a: Counter, b: Counter) -> int:
    """Subtree kernel: sum over shared shapes of count products."""
    if len(b) < len(a):
        a, b = b, a
    return sum(count * b[shape] for shape, count in a.items())


def _reference_side(reference: Module) -> tuple[Counter, int]:
    shapes = subtree_multiset(reference)
    return shapes, kernel(shapes, shapes)


def _normalized(candidate: Module, reference: tuple[Counter, int]) -> float:
    reference_shapes, self_reference = reference
    candidate_shapes = subtree_multiset(candidate)
    shared = kernel(candidate_shapes, reference_shapes)
    if shared == 0:
        return 0.0
    self_candidate = kernel(candidate_shapes, candidate_shapes)
    return shared / math.sqrt(self_candidate * self_reference)


def syntax_match_modules(candidate: Module, reference: Module) -> float:
    """Normalized subtree-kernel similarity of two parsed modules."""
    return _normalized(candidate, _reference_side(reference))


def syntax_match(candidate_text: str, reference_text: str) -> float:
    """The study's SM metric; 0.0 when the candidate does not parse.

    The reference's shapes and self-kernel are computed once per sharing
    scope (within a shard the reference is always the truth)."""
    try:
        candidate = parse_module(candidate_text)
    except (AlloyError, RecursionError):
        return 0.0
    try:
        reference = shard_memo(
            ("sm-shapes", reference_text),
            lambda: _reference_side(shared_parse(reference_text)),
        )
    except (AlloyError, RecursionError):
        raise ValueError("reference specification must parse") from None
    return _normalized(candidate, reference)
