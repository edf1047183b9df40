"""Diagnostics: what the lint engine reports, and the rule registry.

Every finding is a :class:`Diagnostic` — a stable rule code, a severity, a
message, and the source position of the offending node — mirroring the
shape of compiler diagnostics so the CLI, the CI corpus gate, and the LLM
feedback renderer all consume the same records.

Rules live in a registry keyed by stable code (``A201`` …) *and* by a
kebab-case name (``disjoint-join``).  Codes are append-only: a rule may be
retired but its code is never reused, so historical traces and error
taxonomies stay interpretable.

Severity is reporting policy (what the CLI and corpus gate escalate);
pruning eligibility is a *separate*, stricter contract carried by
:attr:`Rule.prunes`.  A rule may only prune when its finding proves the
candidate is an infeasible specification — one the search gains nothing
by solving.  Dead-construct and tautology findings (A2xx/A3xx) do not
qualify: a repair can contain a dead join or a vacuous quantifier in one
paragraph and still meet every command's expectation, so vetoing on them
could discard the very candidate an unfiltered search would select.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.alloy.errors import AlloyError, SourcePos


class LintError(AlloyError):
    """Raised when a caller asks for lint findings to be fatal.

    Carries the diagnostics so programmatic callers (CI, the corpus
    validator) can render them; :func:`repro.runtime.errors.classify_exception`
    maps this class to the stable ``spec.lint`` error code.
    """

    def __init__(
        self,
        message: str,
        diagnostics: list["Diagnostic"] | None = None,
        *,
        pos: SourcePos | None = None,
    ) -> None:
        diagnostics = diagnostics or []
        super().__init__(
            message, diagnostics[0].pos if diagnostics else pos
        )
        self.diagnostics = diagnostics


class Severity(enum.IntEnum):
    """Ordered so that ``severity >= threshold`` comparisons read naturally."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r} (expected info, warning, or error)"
            ) from None


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    """Stable identifier, e.g. ``A201``; append-only, never reused."""
    name: str
    """Kebab-case name, e.g. ``disjoint-join``."""
    severity: Severity
    description: str
    prunes: bool = False
    """Whether a candidate *introducing* this finding may be vetoed before
    translation/solving.  The contract is semantic, not stylistic: the
    finding must witness infeasibility of the candidate as a whole (a
    fact set with no instances, a relation that can never hold a tuple),
    so the veto cannot change which candidate a search selects.  Style and
    dead-code findings stay reportable but never prune."""


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding with its source location."""

    rule: Rule = field(compare=False)
    message: str = ""
    pos: SourcePos = field(default=SourcePos(0, 0), compare=False)
    context: str = ""
    """The enclosing paragraph, e.g. ``fact Marriage`` or ``pred lookup``."""

    @property
    def code(self) -> str:
        return self.rule.code

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    def key(self) -> tuple[str, str, str]:
        """Position-independent identity, used to diff candidate findings
        against a baseline (mutations shift positions, not meanings)."""
        return (self.rule.code, self.context, self.message)

    def render(self) -> str:
        return (
            f"{self.rule.code} {self.severity.name.lower():7s} "
            f"{self.pos.line}:{self.pos.column}  {self.message}"
            + (f"  [{self.context}]" if self.context else "")
        )


_RULES: dict[str, Rule] = {}


def register_rule(
    code: str,
    name: str,
    severity: Severity,
    description: str,
    *,
    prunes: bool = False,
) -> Rule:
    """Register one rule; duplicate codes or names are a programming error."""
    if code in _RULES:
        raise ValueError(f"rule code {code!r} already registered")
    if any(rule.name == name for rule in _RULES.values()):
        raise ValueError(f"rule name {name!r} already registered")
    rule = Rule(
        code=code,
        name=name,
        severity=severity,
        description=description,
        prunes=prunes,
    )
    _RULES[code] = rule
    return rule


def all_rules() -> list[Rule]:
    """Every registered rule in registration (= code) order."""
    return list(_RULES.values())


def rule_by_name(name: str) -> Rule:
    """Look a rule up by code or kebab-case name."""
    if name in _RULES:
        return _RULES[name]
    for rule in _RULES.values():
        if rule.name == name:
            return rule
    raise KeyError(f"unknown lint rule {name!r}")


# -- the built-in rule set ----------------------------------------------------
# Codes are grouped by family: A2xx dead semantics, A3xx suspicious shapes,
# A4xx hygiene.
#
# A2xx/A3xx findings flag constructs that are dead or degenerate *locally*,
# which is not proof the candidate fails the oracle — a passing repair can
# carry a vacuous quantifier in an unrelated paragraph (observed on the
# ARepair benchmark: pruning on A203 changed which fix was selected).  They
# therefore report but never prune; only the A5xx infeasibility family
# meets the `Rule.prunes` contract.

DISJOINT_JOIN = register_rule(
    "A201",
    "disjoint-join",
    Severity.ERROR,
    "a join whose column types never overlap: the expression is always empty",
)
EMPTY_INTERSECTION = register_rule(
    "A202",
    "empty-intersection",
    Severity.ERROR,
    "an intersection of disjoint types: the expression is always empty",
)
VACUOUS_QUANTIFIER = register_rule(
    "A203",
    "vacuous-quantifier",
    Severity.ERROR,
    "a quantifier or comprehension over a statically empty domain",
)
CONTRADICTORY_MULT = register_rule(
    "A204",
    "contradictory-mult",
    Severity.ERROR,
    "a multiplicity constraint that a statically empty operand can never "
    "satisfy (e.g. `some` over an always-empty expression)",
)
TAUTOLOGY = register_rule(
    "A301",
    "tautology",
    Severity.WARNING,
    "a formula that is true in every instance (e.g. `e = e`, `no none`)",
)
CONTRADICTION = register_rule(
    "A302",
    "contradiction",
    Severity.WARNING,
    "a formula that is false in every instance (e.g. `e != e`)",
)
SHADOWED_BINDING = register_rule(
    "A303",
    "shadowed-binding",
    Severity.WARNING,
    "a binder that shadows an outer binder, signature, or field",
)
UNUSED_SIG = register_rule(
    "A401",
    "unused-sig",
    Severity.INFO,
    "a signature never referenced by any field, formula, or command",
)
UNUSED_FIELD = register_rule(
    "A402",
    "unused-field",
    Severity.INFO,
    "a field never referenced by any formula",
)
UNUSED_PRED = register_rule(
    "A403",
    "unused-pred",
    Severity.INFO,
    "a predicate never called and never targeted by a command",
)
UNUSED_FUN = register_rule(
    "A404",
    "unused-fun",
    Severity.INFO,
    "a function never applied in any formula",
)

# A5xx: findings from the abstract cardinality interpretation
# (:mod:`repro.analysis.cardinality`) — interval bounds on tuple counts
# that hold in every instance at every scope.

STATICALLY_UNSAT_FACT = register_rule(
    "A501",
    "statically-unsat-fact",
    Severity.ERROR,
    "a fact whose body is unsatisfiable under any scope: the whole "
    "specification has no instances",
    prunes=True,
)
STATICALLY_VALID_ASSERT = register_rule(
    "A502",
    "statically-valid-assert-body",
    Severity.WARNING,
    "an assertion whose body holds in every instance at every scope: the "
    "check passes vacuously and verifies nothing",
    # Assertions are oracle paragraphs the repair tools never mutate, so
    # this finding is reported but never grounds for pruning a candidate.
)
EMPTY_DOMAIN_DECL = register_rule(
    "A503",
    "empty-domain-decl",
    Severity.ERROR,
    "a field or parameter declared over a statically empty domain: the "
    "relation can never hold a tuple",
    prunes=True,
)
INFEASIBLE_CARD_COMPARE = register_rule(
    "A504",
    "infeasible-cardinality-compare",
    Severity.ERROR,
    "a cardinality comparison the interval bounds refute in every "
    "instance (e.g. `#e < 0`, `#one-sig = 0`)",
    prunes=True,
)
