"""AST traversal/rewrite tests: paths, replacement, removal, cloning."""

import copy

import pytest

from repro.alloy.nodes import Compare, Module, NameExpr, Node, Not, Quantified
from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.alloy.walk import (
    clone,
    find_paths,
    get_at,
    insert_at,
    iter_paths,
    remove_at,
    replace_at,
)
from repro.benchmarks.models import all_models


@pytest.fixture
def module():
    return parse_module(
        "sig A { f: set A }\nfact F { all x: A | x in x.f some A }"
    )


class TestIterPaths:
    def test_root_has_empty_path(self, module):
        paths = list(iter_paths(module))
        assert paths[0] == ((), module)

    def test_get_at_inverts_iter_paths(self, module):
        for path, node in iter_paths(module):
            assert get_at(module, path) is node

    def test_find_paths(self, module):
        name_paths = find_paths(module, lambda n: isinstance(n, NameExpr))
        assert len(name_paths) >= 4


class TestReplace:
    def test_replace_leaf(self, module):
        path = find_paths(
            module, lambda n: isinstance(n, NameExpr) and n.name == "A"
        )[-1]
        new_module = replace_at(module, path, NameExpr(name="B"))
        assert "B" in print_module(new_module)
        # Original untouched.
        assert "B" not in print_module(module)

    def test_replace_formula_with_negation(self, module):
        path = find_paths(module, lambda n: isinstance(n, Compare))[0]
        node = get_at(module, path)
        new_module = replace_at(module, path, Not(operand=node))
        replaced = get_at(new_module, path)
        assert isinstance(replaced, Not)

    def test_replace_root_returns_copy(self, module):
        other = parse_module("sig Z {}")
        result = replace_at(module, (), other)
        assert print_module(result) == print_module(other)
        assert result is not other


class TestRemoveInsert:
    def test_remove_conjunct(self, module):
        quant_path = find_paths(module, lambda n: isinstance(n, Quantified))[0]
        new_module = remove_at(module, quant_path)
        assert len(list(iter_paths(new_module))) < len(
            list(iter_paths(module))
        )

    def test_remove_root_rejected(self, module):
        with pytest.raises(ValueError):
            remove_at(module, ())

    def test_remove_scalar_child_rejected(self, module):
        # A quantifier body is a scalar field, not a list element.
        quant_path = find_paths(module, lambda n: isinstance(n, Quantified))[0]
        body_path = quant_path + (("body", None),)
        with pytest.raises(ValueError):
            remove_at(module, body_path)

    def test_insert_formula(self, module):
        fact_path = find_paths(
            module, lambda n: type(n).__name__ == "FactDecl"
        )[0]
        block_path = fact_path + (("body", None),)
        block = get_at(module, block_path)
        before = len(block.formulas)
        new_module = insert_at(
            module,
            block_path,
            0,
            Compare(left=NameExpr(name="A"), right=NameExpr(name="A")),
            "formulas",
        )
        new_block = get_at(new_module, block_path)
        assert len(new_block.formulas) == before + 1


def _containers(node: Node) -> list[object]:
    """Every Node and list object reachable from ``node``."""
    found: list[object] = []
    for current in node.walk():
        found.append(current)
        found.extend(v for v in vars(current).values() if isinstance(v, list))
    return found


class TestClone:
    """``clone`` must equal ``copy.deepcopy`` on every node of every corpus
    model — positions included — while sharing no mutable object."""

    @pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
    def test_clone_matches_deepcopy_on_corpus(self, model):
        module = parse_module(model.source)
        for _, node in iter_paths(module):
            cloned = clone(node)
            reference = copy.deepcopy(node)
            assert cloned == reference
            # ``pos`` is excluded from ``==``; the repr includes it.
            assert repr(cloned) == repr(reference)
            shared = {id(o) for o in _containers(node)} & {
                id(o) for o in _containers(cloned)
            }
            assert not shared
        cloned = clone(module)
        assert isinstance(cloned, Module)
        assert print_module(cloned) == print_module(copy.deepcopy(module))

    def test_clone_does_not_alias_the_input(self, module):
        cloned = clone(module)
        cloned.paragraphs[-1].body.formulas.clear()
        assert module.paragraphs[-1].body.formulas
