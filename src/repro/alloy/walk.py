"""Generic AST traversal and rewriting utilities.

Nodes are addressed by *paths*: tuples of ``(field_name, index)`` steps from a
root node, where ``index`` is ``None`` for scalar fields and an integer for
list fields.  Paths survive pretty-print/re-parse round trips of an unchanged
tree, which lets fault localization, mutation, and repair tools name and
rewrite arbitrary subtrees without bespoke visitors.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Iterator

from repro.alloy.nodes import Node

Path = tuple[tuple[str, int | None], ...]
"""A structural address of a node below some root."""


def iter_paths(root: Node) -> Iterator[tuple[Path, Node]]:
    """Yield ``(path, node)`` for the root and every descendant, pre-order."""
    yield (), root
    for step, child in _child_steps(root):
        for sub_path, node in iter_paths(child):
            yield (step,) + sub_path, node


def _child_steps(node: Node) -> Iterator[tuple[tuple[str, int | None], Node]]:
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield (f.name, None), value
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, Node):
                    yield (f.name, index), item


def get_at(root: Node, path: Path) -> Node:
    """Return the node addressed by ``path`` below ``root``."""
    node: Node = root
    for field_name, index in path:
        value = getattr(node, field_name)
        node = value if index is None else value[index]
    return node


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """``dataclasses.fields`` names of a node class, memoized per class."""
    return tuple(f.name for f in dataclasses.fields(cls))


def clone(node: Node) -> Node:
    """A deep copy of ``node``: fresh ``Node`` objects and fresh lists.

    Leaves are immutable (strings, ints, bools, enums, ``SourcePos`` and
    ``None``) and are shared with the input, which makes this much cheaper
    than a generic deep copy for an equal result."""
    fields = {}
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            value = clone(value)
        elif isinstance(value, list):
            value = [clone(v) if isinstance(v, Node) else v for v in value]
        fields[name] = value
    return type(node)(**fields)


def _shallow_node(node: Node) -> Node:
    """A one-level copy of ``node``: fresh object, fresh list containers,
    shared child subtrees."""
    fields = {}
    for name in _field_names(type(node)):
        value = getattr(node, name)
        fields[name] = list(value) if isinstance(value, list) else value
    return type(node)(**fields)


def _copy_spine(root: Node, path: Path) -> tuple[Node, Node]:
    """Copy the nodes along ``path`` (exclusive of its last step), sharing
    every subtree off the path.  Returns ``(new_root, parent_copy)``.

    Rewrites built on this are persistent-data-structure updates: the result
    shares all untouched paragraphs with ``root``, so producing hundreds of
    candidate mutants costs O(depth) copies each instead of a full deep copy
    — and downstream identity-keyed caches (translation fragments, paragraph
    digests) see unchanged subtrees as the *same* objects.  Callers must
    treat ASTs as immutable, which every consumer in this codebase does.
    """
    new_root = _shallow_node(root)
    parent = new_root
    for field_name, index in path[:-1]:
        value = getattr(parent, field_name)
        child = value if index is None else value[index]
        fresh = _shallow_node(child)
        if index is None:
            setattr(parent, field_name, fresh)
        else:
            value[index] = fresh
        parent = fresh
    return new_root, parent


def replace_at(root: Node, path: Path, replacement: Node) -> Node:
    """Return a copy of ``root`` with the node at ``path`` replaced.

    The copy shares every subtree not on the path with ``root``; the
    replacement itself is cloned (proposals may embed pieces of the
    original tree)."""
    if not path:
        return clone(replacement)
    new_root, parent = _copy_spine(root, path)
    field_name, index = path[-1]
    if index is None:
        setattr(parent, field_name, clone(replacement))
    else:
        getattr(parent, field_name)[index] = clone(replacement)
    return new_root


def remove_at(root: Node, path: Path) -> Node:
    """Return a copy of ``root`` with the list element at ``path`` removed.

    The addressed node must live in a list field (e.g. a formula inside a
    block); removing a scalar child would leave the parent malformed.
    Unaffected subtrees are shared with ``root``.
    """
    if not path:
        raise ValueError("cannot remove the root node")
    field_name, index = path[-1]
    if index is None:
        raise ValueError(f"node at field {field_name!r} is not a list element")
    new_root, parent = _copy_spine(root, path)
    del getattr(parent, field_name)[index]
    return new_root


def insert_at(root: Node, path: Path, index: int, new_node: Node, field_name: str) -> Node:
    """Return a copy of ``root`` with ``new_node`` inserted into the list
    field ``field_name`` of the node at ``path``, at position ``index``.
    Unaffected subtrees are shared with ``root``."""
    new_root, parent = _copy_spine(root, path + ((field_name, None),))
    getattr(parent, field_name).insert(index, clone(new_node))
    return new_root


def find_paths(root: Node, predicate: Callable[[Node], bool]) -> list[Path]:
    """All paths whose node satisfies ``predicate``, pre-order."""
    return [path for path, node in iter_paths(root) if predicate(node)]
