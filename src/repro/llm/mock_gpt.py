"""MockGPT: a deterministic, seeded stand-in for GPT-4.

The offline environment cannot call OpenAI/Azure, so this class simulates
the *behaviour* of a strong code LLM on Alloy repair while keeping every
in-repo code path real: it reads only the conversation text, locates the
faulty specification and any hints inside the prompt, reasons over
counterexamples quoted in analyzer feedback, and answers with prose plus a
fenced code block (occasionally with the formatting quirks that forced the
study's authors to build a specialized response parser).

Its repair engine is an explicit capability model: a seeded sampler over
mutation/template proposals whose *targeting quality* improves with the
information present in the prompt — bug location, fix descriptions, passing
assertions, and counterexample feedback.  The knobs in
:class:`CapabilityProfile` are calibrated so the per-setting success rates
match the shape of the published study (see EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
from dataclasses import dataclass

from repro.alloy.errors import AlloyError
from repro.alloy.nodes import Command, Module
from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.alloy.resolver import resolve_module
from repro.alloy.walk import get_at
from repro.analyzer.evaluator import Evaluator
from repro.analyzer.instance import Instance
from repro.llm.client import Conversation, UsageStats
from repro.repair.mutation import Mutant, Mutator, mutation_points
from repro.repair.templates import strengthening_candidates, template_candidates

_FENCE = re.compile(r"```[a-zA-Z0-9_+-]*\n(.*?)```", re.DOTALL)
_LOC_HINT = re.compile(r"Bug location: (.+)")
_FIX_HINT = re.compile(r"Fix description: (.+)")
_PASS_HINT = re.compile(r"assertion '(\w+)' pass")
_PARAGRAPH_HINT = re.compile(r"(?:fact|pred|fun|assert|sig|field)\s+'?(\w+)'?")
_RELATION_LINE = re.compile(r"^\s*(\w+) = \{(.*)\}\s*$")

# Keyword classes a fix description may mention, mapped to the substrings of
# mutation descriptions they endorse and the weight of the endorsement.
# Specific structural vocabulary ("quantifier", "closure") is far more
# directive than generic words ("operator", "constraint").
_FIX_CLASSES: dict[str, tuple[float, list[str]]] = {
    "quantifier": (4.0, ["quantifier"]),
    "comparison": (4.0, ["compare", "swap operands"]),
    "connective": (4.0, ["logic"]),
    "multiplicity": (4.0, ["multiplicity", "field"]),
    "negation": (4.0, ["negate", "drop negation"]),
    "closure": (4.0, ["closure", "* ->", "^ ->"]),
    "transpose": (4.0, ["transpose"]),
    "missing conjunct": (4.0, ["drop conjunct"]),
    "operator": (1.5, ["operator", "compare", "logic"]),
    "relation": (1.5, ["name ", "join"]),
    "constraint": (0.5, ["drop conjunct", "negate"]),
}


@dataclass
class CapabilityProfile:
    """Calibration knobs for the simulated model's repair proficiency.

    The *insight* probabilities control how often the model engages its
    semantic reasoning (implemented as bounded self-verification of its
    top-ranked candidates at a reduced scope) instead of pattern-matching a
    plausible-looking edit.  ``self_check_candidates`` and
    ``self_check_scope`` bound how much reasoning one call can do — the
    model's effective competence.
    """

    proposals_per_call: int = 60
    insight_base: float = 0.08
    insight_loc: float = 0.42
    insight_fix: float = 0.80
    insight_pass: float = 0.28
    insight_feedback_generic: float = 0.45
    insight_feedback_auto: float = 0.50
    self_check_candidates: int = 0
    """How many top-ranked proposals the model mentally verifies (0 = none)."""
    self_check_scope: int = 2
    """Scope cap for mental verification (small scopes miss counterexamples)."""
    deep_roots: int = 0
    """When no single edit verifies, how many top candidates to extend with a
    second edit (the model 'thinking further'); 0 disables two-edit search."""
    deep_leaves: int = 0
    """How many second edits to mentally verify per extended candidate."""
    depth2_probability: float = 0.20
    malformed_rate: float = 0.03
    chatter_rate: float = 0.6
    misleading_hint_penalty: float = 0.5
    """Multiplier applied to fix-hint insight when the hint reads as vague."""
    loc_pass_interference: float = 1.0
    """Multiplier on insight when Loc and Pass hints are combined without a
    fix description.  The study observed Loc+Pass underperforming Loc alone —
    the two signals pull the model's attention in different directions."""


GPT35_PROFILE = CapabilityProfile(
    proposals_per_call=60,
    insight_base=0.035,
    insight_loc=0.85,
    insight_fix=0.88,
    insight_pass=0.85,
    insight_feedback_generic=0.35,
    insight_feedback_auto=0.40,
    self_check_candidates=12,
    self_check_scope=3,
    deep_roots=4,
    deep_leaves=6,
    depth2_probability=0.25,
    malformed_rate=0.04,
    loc_pass_interference=0.22,
)
"""The single-round study used ChatGPT (GPT-3.5-class reasoning)."""

GPT4_PROFILE = CapabilityProfile(
    proposals_per_call=90,
    insight_base=0.45,
    insight_loc=0.45,
    insight_fix=0.85,
    insight_pass=0.35,
    insight_feedback_generic=0.30,
    insight_feedback_auto=0.35,
    self_check_candidates=12,
    self_check_scope=3,
    deep_roots=3,
    deep_leaves=5,
    depth2_probability=0.15,
    malformed_rate=0.02,
)
"""The multi-round study used GPT-4: stronger unaided reasoning."""

# Plausibility prior: how much each edit class looks like a typical human
# specification bug-fix (drives ranking when no stronger signal applies).
_PLAUSIBILITY: list[tuple[str, float]] = [
    ("quantifier", 0.9),
    ("compare", 0.9),
    ("closure", 0.9),
    ("multiplicity", 0.8),
    ("logic", 0.8),
    ("field", 0.7),
    ("transpose", 0.6),
    ("operator", 0.6),
    ("name ", 0.45),
    ("join", 0.4),
    ("swap operands", 0.4),
    ("drop negation", 0.3),
    ("negate formula", 0.15),
    ("drop conjunct", 0.15),
    ("univ", 0.05),
    ("none", 0.05),
]


class MockGPT:
    """A deterministic simulated GPT-4 for Alloy repair."""

    def __init__(self, seed: int = 0, profile: CapabilityProfile | None = None) -> None:
        self._seed = seed
        self.profile = profile or CapabilityProfile()
        self.usage = UsageStats()

    # -- entry point ------------------------------------------------------------

    def complete(self, conversation: Conversation) -> str:
        system = next(
            (m.content for m in conversation.messages if m.role == "system"), ""
        )
        if "debugging assistant" in system:
            response = self._prompt_agent(conversation)
        else:
            response = self._repair_agent(conversation)
        self.usage.record(conversation, response)
        return response

    # -- deterministic randomness --------------------------------------------------

    def _rng_for(self, conversation: Conversation) -> random.Random:
        digest = hashlib.sha256()
        digest.update(str(self._seed).encode())
        digest.update(conversation.rendered().encode())
        return random.Random(int.from_bytes(digest.digest()[:8], "big"))

    # -- Prompt Agent (Auto-feedback) -------------------------------------------

    def _prompt_agent(self, conversation: Conversation) -> str:
        """Produce tailored repair guidance from a candidate + report."""
        rng = self._rng_for(conversation)
        user_text = "\n".join(
            m.content for m in conversation.messages if m.role == "user"
        )
        module = self._find_spec(user_text)
        failing = re.findall(r"- (?:run|check) (\w+): expected", user_text)
        if module is None:
            return (
                "The candidate could not be analyzed. Re-check the syntax and "
                "resubmit the full specification."
            )
        suspect = self._suspect_paragraph(module, failing, user_text, rng)
        lines = ["Based on the analyzer report, here is my assessment:"]
        if failing:
            lines.append(
                f"The failing command(s) {', '.join(failing)} indicate the "
                "constraints are mis-specified."
            )
        if suspect is not None:
            name, index = suspect
            lines.append(
                f"I suspect the problem lies in fact '{name}', "
                f"constraint {index + 1}. Reconsider its operators and "
                "quantifiers."
            )
        lines.append(
            "Adjust the suspect constraint rather than rewriting the whole "
            "model, and return the complete specification."
        )
        return "\n".join(lines)

    def _suspect_paragraph(
        self,
        module: Module,
        failing: list[str],
        report_text: str,
        rng: random.Random,
    ) -> tuple[str, int] | None:
        """Heuristically pick a (fact name, conjunct index) to blame."""
        candidates: list[tuple[str, int, int]] = []  # (name, index, overlap)
        mentioned = set(re.findall(r"\b(\w+) = \{", report_text))
        for paragraph in module.facts:
            name = paragraph.name or "fact"
            for index, formula in enumerate(paragraph.body.formulas):
                names = {
                    n.name
                    for n in formula.walk()
                    if hasattr(n, "name") and isinstance(getattr(n, "name"), str)
                }
                overlap = len(names & mentioned)
                candidates.append((name, index, overlap))
        if not candidates:
            return None
        best_overlap = max(c[2] for c in candidates)
        top = [c for c in candidates if c[2] == best_overlap]
        name, index, _ = rng.choice(top)
        return name, index

    # -- Repair Agent -------------------------------------------------------------

    def _repair_agent(self, conversation: Conversation) -> str:
        rng = self._rng_for(conversation)
        first_user = next(
            (m.content for m in conversation.messages if m.role == "user"), ""
        )
        all_user = "\n".join(
            m.content for m in conversation.messages if m.role == "user"
        )
        module = self._find_spec(first_user)
        if module is None:
            return (
                "I could not find a complete Alloy specification in your "
                "message; please include it in a fenced code block."
            )
        try:
            info = resolve_module(module)
        except (AlloyError, RecursionError):
            return "The provided specification does not resolve; please re-check it."

        hints = self._collect_hints(all_user)
        feedback_instances = self._parse_feedback_instances(all_user)
        if not feedback_instances and self.profile.self_check_candidates > 0:
            # Strong models "work out" why the model is wrong before editing:
            # derive counterexamples of the failing checks (prioritizing a
            # Pass-hinted assertion) and favour candidates that refute them.
            feedback_instances = self._derive_counterexamples(
                module, hints.get("pass")
            )
        proposals = self._enumerate_proposals(module, info, rng)
        if not proposals:
            return self._render(module, rng, "I believe the specification is correct.")

        insight = self._insight_probability(hints, conversation, rng)
        confident = rng.random() < insight
        if confident:
            ranked = self._rank_proposals(
                module, info, proposals, hints, feedback_instances, rng
            )
            chosen = self._self_check(ranked, hints, feedback_instances, rng)
        else:
            chosen = rng.choice(proposals)

        candidate = chosen.module
        if not confident and rng.random() < self.profile.depth2_probability:
            # Low confidence: the model sometimes piles on a second edit,
            # the "creative rewrite" behaviour real LLMs exhibit.
            candidate = self._second_edit(candidate, rng) or candidate

        prose = self._explanation(chosen, rng)
        return self._render(candidate, rng, prose)

    # -- prompt understanding ---------------------------------------------------

    @staticmethod
    def _find_spec(text: str) -> Module | None:
        for match in _FENCE.finditer(text):
            try:
                module = parse_module(match.group(1))
            except (AlloyError, RecursionError):
                continue
            if module.paragraphs:
                return module
        return None

    @staticmethod
    def _collect_hints(text: str) -> dict[str, str]:
        hints: dict[str, str] = {}
        loc = _LOC_HINT.search(text)
        if loc:
            hints["loc"] = loc.group(1)
        fix = _FIX_HINT.search(text)
        if fix:
            hints["fix"] = fix.group(1)
        pass_hint = _PASS_HINT.search(text)
        if pass_hint:
            hints["pass"] = pass_hint.group(1)
        suspect = re.search(r"suspect the problem lies in fact '(\w+)'", text)
        if suspect:
            hints["auto_loc"] = suspect.group(1)
        return hints

    def _derive_counterexamples(
        self, module: Module, assertion: str | None = None
    ) -> list[Instance]:
        """Mentally find counterexamples of the module's check commands.

        With an ``assertion`` name (the Pass hint) only that check is probed;
        otherwise every check command is tried in order."""
        from repro.analyzer.analyzer import Analyzer

        try:
            analyzer = Analyzer(module)
        except (AlloyError, RecursionError):
            return []
        targets: list[str] = []
        if assertion is not None and assertion in analyzer.info.asserts:
            targets = [assertion]
        else:
            targets = [
                c.target
                for c in analyzer.info.commands
                if c.kind == "check" and c.target is not None
            ]
        scope = self.profile.self_check_scope + 1
        found: list[Instance] = []
        for target in targets:
            command = Command(kind="check", target=target, default_scope=scope)
            try:
                result = analyzer.run_command(command, max_instances=2)
            except (AlloyError, RecursionError):
                continue
            found.extend(result.instances)
            if found:
                break
        return found

    @staticmethod
    def _parse_feedback_instances(text: str) -> list[Instance]:
        """Recover counterexample valuations quoted in feedback messages."""
        instances: list[Instance] = []
        current: dict[str, set[tuple[str, ...]]] = {}
        for line in text.splitlines():
            match = _RELATION_LINE.match(line)
            if match is None:
                if current:
                    instances.append(
                        Instance(
                            relations={
                                k: frozenset(v) for k, v in current.items()
                            }
                        )
                    )
                    current = {}
                continue
            name, body = match.groups()
            tuples: set[tuple[str, ...]] = set()
            body = body.strip()
            if body:
                for chunk in body.split(","):
                    tuples.add(tuple(part.strip() for part in chunk.split("->")))
            current[name] = tuples
        if current:
            instances.append(
                Instance(relations={k: frozenset(v) for k, v in current.items()})
            )
        return instances

    def _insight_probability(
        self, hints: dict[str, str], conversation: Conversation, rng: random.Random
    ) -> float:
        profile = self.profile
        miss = 1.0 - profile.insight_base
        if "loc" in hints:
            miss *= 1.0 - profile.insight_loc
        if "fix" in hints:
            strength = profile.insight_fix
            if "may" in hints["fix"] or "somewhere" in hints["fix"]:
                strength *= profile.misleading_hint_penalty
            miss *= 1.0 - strength
        if "pass" in hints:
            miss *= 1.0 - profile.insight_pass
        text = conversation.rendered()
        if "counterexample" in text:
            miss *= 1.0 - profile.insight_feedback_generic
        if "auto_loc" in hints:
            miss *= 1.0 - profile.insight_feedback_auto
        probability = 1.0 - miss
        if "loc" in hints and "pass" in hints and "fix" not in hints:
            probability *= profile.loc_pass_interference
        return probability

    # -- proposal generation and ranking -----------------------------------------

    def _enumerate_proposals(
        self, module: Module, info, rng: random.Random
    ) -> list[Mutant]:
        mutator = Mutator(module, info)
        proposals = list(mutator.all_mutants(limit=self.profile.proposals_per_call))
        points = mutation_points(module)
        rng.shuffle(points)
        remaining = self.profile.proposals_per_call // 2
        for path in points[:6]:
            for mutant in template_candidates(
                module, info, path, max_per_location=8
            ):
                proposals.append(mutant)
                remaining -= 1
                if remaining <= 0:
                    break
            if remaining <= 0:
                break
        # Synthesis proposals: re-state an assertion as a constraint (the
        # "write the missing invariant" move a strong LLM makes naturally).
        for candidate, description in strengthening_candidates(module, info):
            proposals.append(Mutant(module=candidate, description=description, path=()))
        rng.shuffle(proposals)
        return proposals

    def _rank_proposals(
        self,
        module: Module,
        info,
        proposals: list[Mutant],
        hints: dict[str, str],
        feedback_instances: list[Instance],
        rng: random.Random,
    ) -> list[Mutant]:
        loc_hint = hints.get("loc", "") + " " + hints.get("auto_loc", "")
        hinted_names = set(_PARAGRAPH_HINT.findall(loc_hint))
        hinted_names |= set(re.findall(r"'(\w+)'", loc_hint))
        fix_text = hints.get("fix", "").lower()
        fix_classes = [
            (weight, needles)
            for keyword, (weight, needles) in _FIX_CLASSES.items()
            if keyword in fix_text
        ]
        pass_relations: set[str] = set()
        if "pass" in hints:
            assertion = info.asserts.get(hints["pass"])
            if assertion is not None:
                pass_relations = {
                    n.name
                    for n in assertion.body.walk()
                    if hasattr(n, "name") and isinstance(getattr(n, "name"), str)
                }

        paragraph_relations = self._paragraph_relations(module)

        def score(mutant: Mutant) -> float:
            value = rng.random()  # jitter for tie-breaking
            paragraph = self._owning_paragraph_name(module, mutant)
            if paragraph and paragraph in hinted_names:
                value += 3.0
            for weight, needles in fix_classes:
                if any(needle in mutant.description for needle in needles):
                    value += weight
            for needle, prior in _PLAUSIBILITY:
                if needle in mutant.description:
                    value += prior
                    break
            if pass_relations:
                # Structural pseudo-localization: edits inside constraints
                # mentioning the assertion's relations are more promising.
                overlap = paragraph_relations.get(paragraph or "", set())
                if overlap & pass_relations:
                    value += 2.5
                if any(name in mutant.description for name in pass_relations):
                    value += 1.0
            if feedback_instances:
                value += 2.0 * self._refutes(mutant.module, feedback_instances)
            return value

        return sorted(proposals, key=score, reverse=True)

    def _self_check(
        self,
        ranked: list[Mutant],
        hints: dict[str, str],
        feedback_instances: list[Instance],
        rng: random.Random,
    ) -> Mutant:
        """Mental verification: check top-ranked candidates against the
        spec's own commands at a reduced scope, modelling in-context semantic
        reasoning.  The reduced scope keeps the reasoning fallible — a
        candidate can pass mentally yet fail at the real scope.

        When no single edit verifies, the model "keeps thinking": it extends
        its best candidates with a second edit (bounded by ``deep_roots`` ×
        ``deep_leaves``), which is how multi-edit faults get repaired."""
        budget = self.profile.self_check_candidates
        if budget <= 0:
            return ranked[0]
        for mutant in ranked[:budget]:
            if self._mentally_verifies(mutant.module):
                return mutant
        for root in ranked[: self.profile.deep_roots]:
            try:
                root_info = resolve_module(root.module)
            except (AlloyError, RecursionError):
                continue
            followups = self._enumerate_proposals(root.module, root_info, rng)
            if not followups:
                continue
            ranked_followups = self._rank_proposals(
                root.module, root_info, followups, hints, feedback_instances, rng
            )
            for leaf in ranked_followups[: self.profile.deep_leaves]:
                if self._mentally_verifies(leaf.module):
                    return Mutant(
                        module=leaf.module,
                        description=f"{root.description}; {leaf.description}",
                        path=root.path,
                    )
        return ranked[0]

    def _mentally_verifies(self, module: Module) -> bool:
        from repro.analyzer.analyzer import Analyzer

        scope = self.profile.self_check_scope
        # Only the commands change; every other paragraph is shared, since
        # the analyzer never mutates its module.
        reduced = dataclasses.replace(
            module,
            paragraphs=[
                dataclasses.replace(
                    p,
                    default_scope=min(p.default_scope, scope),
                    sig_scopes=[
                        dataclasses.replace(s, bound=min(s.bound, scope))
                        for s in p.sig_scopes
                    ],
                )
                if isinstance(p, Command)
                else p
                for p in module.paragraphs
            ],
        )
        try:
            analyzer = Analyzer(reduced)
        except (AlloyError, RecursionError):
            return False
        for command in analyzer.info.commands:
            expected = (
                command.expect == 1
                if command.expect is not None
                else command.kind == "run"
            )
            try:
                result = analyzer.run_command(command)
            except (AlloyError, RecursionError):
                return False
            if result.sat != expected:
                return False
        return True

    @staticmethod
    def _paragraph_relations(module: Module) -> dict[str, set[str]]:
        """Relation/set names mentioned by each named paragraph."""
        result: dict[str, set[str]] = {}
        for paragraph in module.paragraphs:
            name = getattr(paragraph, "name", None)
            if name is None:
                names = getattr(paragraph, "names", None)
                name = names[0] if names else None
            if name is None:
                continue
            result[name] = {
                getattr(n, "name")
                for n in paragraph.walk()
                if isinstance(getattr(n, "name", None), str)
            }
        return result

    @staticmethod
    def _owning_paragraph_name(module: Module, mutant: Mutant) -> str | None:
        if not mutant.path:
            return None
        head = mutant.path[0]
        try:
            paragraph = get_at(module, (head,))
        except (IndexError, AttributeError):
            return None
        name = getattr(paragraph, "name", None)
        if name is None:
            names = getattr(paragraph, "names", None)
            if names:
                return names[0]
        return name

    @staticmethod
    def _refutes(module: Module, instances: list[Instance]) -> float:
        """Fraction of quoted counterexamples the candidate now rejects."""
        try:
            info = resolve_module(module)
        except (AlloyError, RecursionError):
            return 0.0
        rejected = 0
        for instance in instances:
            try:
                if not Evaluator(info, instance).facts_hold():
                    rejected += 1
            except AlloyError:
                continue
        return rejected / len(instances) if instances else 0.0

    def _second_edit(self, module: Module, rng: random.Random) -> Module | None:
        try:
            info = resolve_module(module)
        except (AlloyError, RecursionError):
            return None
        mutator = Mutator(module, info)
        followups = list(mutator.all_mutants(limit=20))
        if not followups:
            return None
        return rng.choice(followups).module

    # -- response rendering -------------------------------------------------------

    def _explanation(self, chosen: Mutant, rng: random.Random) -> str:
        openers = [
            "I reviewed the specification and found a likely fault.",
            "After analyzing the constraints, I identified the issue.",
            "Here is the repaired specification.",
            "The fault appears to be in one of the constraints; I have fixed it.",
        ]
        return f"{rng.choice(openers)} The change applied: {chosen.description}."

    def _render(self, module: Module, rng: random.Random, prose: str) -> str:
        text = print_module(module)
        roll = rng.random()
        if roll < self.profile.malformed_rate:
            # Truncated emission: the failure mode the study's specialized
            # parser had to survive.
            cut = max(10, int(len(text) * 0.6))
            return f"{prose}\n```alloy\n{text[:cut]}"
        if roll < self.profile.malformed_rate + 0.07:
            # Unfenced code after prose.
            return f"{prose}\n\n{text}"
        fence_tag = rng.choice(["alloy", "als", "", "java"])
        trailer = (
            "\nLet me know if further adjustments are needed."
            if rng.random() < self.profile.chatter_rate
            else ""
        )
        return f"{prose}\n```{fence_tag}\n{text}```{trailer}"
