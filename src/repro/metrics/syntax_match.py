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
from repro.analysis.canon import shared_parse


def subtree_shape(node: Node) -> str:
    """A canonical serialization of the subtree rooted at ``node``.

    The shape captures node kind, the discriminating attributes the Alloy
    Analyzer cares about (operators, quantifiers, names, multiplicities), and
    the shapes of all children — but no positions or formatting.
    """
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
    children = ",".join(subtree_shape(child) for child in node.children())
    return f"{label}({children})"


def subtree_multiset(module: Module) -> Counter:
    """Multiset of all subtree shapes in a module's AST."""
    return Counter(subtree_shape(node) for node in module.walk())


def kernel(a: Counter, b: Counter) -> int:
    """Subtree kernel: sum over shared shapes of count products."""
    if len(b) < len(a):
        a, b = b, a
    return sum(count * b[shape] for shape, count in a.items())


def syntax_match_modules(candidate: Module, reference: Module) -> float:
    """Normalized subtree-kernel similarity of two parsed modules."""
    candidate_shapes = subtree_multiset(candidate)
    reference_shapes = subtree_multiset(reference)
    shared = kernel(candidate_shapes, reference_shapes)
    if shared == 0:
        return 0.0
    self_candidate = kernel(candidate_shapes, candidate_shapes)
    self_reference = kernel(reference_shapes, reference_shapes)
    return shared / math.sqrt(self_candidate * self_reference)


def syntax_match(candidate_text: str, reference_text: str) -> float:
    """The study's SM metric; 0.0 when the candidate does not parse."""
    try:
        candidate = parse_module(candidate_text)
    except (AlloyError, RecursionError):
        return 0.0
    try:
        reference = shared_parse(reference_text)
    except (AlloyError, RecursionError):
        raise ValueError("reference specification must parse") from None
    return syntax_match_modules(candidate, reference)
