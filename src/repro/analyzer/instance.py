"""Concrete instances (models / counterexamples) of a specification.

An :class:`Instance` maps every signature and field name to a set of atom
tuples.  Instances are produced by the model finder and consumed by the
evaluator, by AUnit-style tests, and by the feedback generators of the
LLM-based repair pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloy.resolver import ModuleInfo

Tuple = tuple[str, ...]
Relation = frozenset[Tuple]


@dataclass(frozen=True)
class Instance:
    """An immutable valuation of all signatures and fields."""

    relations: dict[str, Relation] = field(default_factory=dict)

    def relation(self, name: str) -> Relation:
        """The value of a relation, empty if absent."""
        return self.relations.get(name, frozenset())

    def atoms(self) -> frozenset[str]:
        """All atoms present in any unary signature relation."""
        result: set[str] = set()
        for name, tuples in self.relations.items():
            for tup in tuples:
                if len(tup) == 1:
                    result.add(tup[0])
        return frozenset(result)

    def with_relation(self, name: str, tuples: frozenset[Tuple]) -> "Instance":
        """A copy of this instance with one relation replaced."""
        relations = dict(self.relations)
        relations[name] = frozenset(tuples)
        return Instance(relations=relations)

    def canonical_key(self) -> tuple:
        """A hashable, order-independent key for duplicate detection.

        Computed once per instance: instances are immutable, and tests key
        verdict caches by them."""
        key = self.__dict__.get("_canonical_key")
        if key is None:
            key = tuple(
                (name, tuple(sorted(self.relations[name])))
                for name in sorted(self.relations)
            )
            object.__setattr__(self, "_canonical_key", key)
        return key

    def describe(self, info: ModuleInfo | None = None) -> str:
        """A readable multi-line rendering (used in LLM feedback prompts)."""
        lines: list[str] = []
        names = sorted(self.relations)
        if info is not None:
            sig_names = [n for n in names if n in info.sigs]
            field_names = [n for n in names if n in info.fields]
            names = sig_names + field_names
        for name in names:
            tuples = sorted(self.relations[name])
            rendered = ", ".join("->".join(tup) for tup in tuples)
            lines.append(f"{name} = {{{rendered}}}")
        return "\n".join(lines)

    def __hash__(self) -> int:  # dataclass(frozen) can't hash the dict field
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash(self.canonical_key())
            object.__setattr__(self, "_hash", value)
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()


def make_instance(relations: dict[str, set[Tuple] | frozenset[Tuple]]) -> Instance:
    """Build an instance from plain sets of tuples."""
    return Instance(
        relations={name: frozenset(tuples) for name, tuples in relations.items()}
    )
