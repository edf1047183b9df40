"""MockGPT behaviour tests: determinism, prompt understanding, response form."""

import pytest

from repro.alloy.parser import parse_module
from repro.alloy.pretty import print_module
from repro.llm.client import Conversation
from repro.llm.extract import try_extract_module
from repro.llm.mock_gpt import (
    GPT35_PROFILE,
    GPT4_PROFILE,
    CapabilityProfile,
    MockGPT,
    _reduce_scopes,
    _scratch_verifies,
    _SelfCheck,
)
from repro.llm.prompts import (
    PromptSetting,
    RepairHints,
    initial_multi_round_prompt,
    single_round_prompt,
)

SPEC = """
sig Node { next: lone Node }
fact Acyclic { all n: Node | n not in n.next }
pred show { some Node }
assert NoCycle { no n: Node | n in n.^next }
run show for 3 expect 1
check NoCycle for 3 expect 0
"""

HINTS = RepairHints(
    location="fact 'Acyclic', constraint 1",
    fix_description="A transitive closure seems to be misused here.",
    passing_assertion="NoCycle",
)


def conversation_for(setting=PromptSetting.LOC_FIX):
    return single_round_prompt(SPEC, setting, HINTS)


class TestDeterminism:
    def test_same_seed_same_response(self):
        first = MockGPT(seed=11).complete(conversation_for())
        second = MockGPT(seed=11).complete(conversation_for())
        assert first == second

    def test_different_seeds_vary(self):
        responses = {
            MockGPT(seed=s).complete(conversation_for()) for s in range(6)
        }
        assert len(responses) > 1

    def test_different_prompts_vary(self):
        gpt = MockGPT(seed=3)
        first = gpt.complete(conversation_for(PromptSetting.LOC))
        second = gpt.complete(conversation_for(PromptSetting.NONE))
        assert first != second


class TestResponseShape:
    def test_response_usually_extractable(self):
        extractable = 0
        for seed in range(20):
            response = MockGPT(seed=seed).complete(conversation_for())
            module, _ = try_extract_module(response)
            if module is not None:
                extractable += 1
        assert extractable >= 16  # malformed_rate keeps a few unparseable

    def test_usage_recorded(self):
        gpt = MockGPT(seed=0)
        gpt.complete(conversation_for())
        assert gpt.usage.requests == 1
        assert gpt.usage.completion_chars > 0

    def test_no_spec_in_prompt_handled(self):
        conversation = Conversation()
        conversation.add("system", "You repair Alloy specifications.")
        conversation.add("user", "please fix my code")
        response = MockGPT(seed=0).complete(conversation)
        assert "specification" in response


class TestPromptAgent:
    def test_prompt_agent_mode_produces_guidance(self):
        from repro.llm.prompts import (
            AnalyzerReport,
            CommandReport,
            prompt_agent_conversation,
        )
        from repro.analyzer.instance import make_instance

        report = AnalyzerReport(
            compiled=True,
            commands=[
                CommandReport(
                    name="NoCycle",
                    kind="check",
                    expected_sat=False,
                    actual_sat=True,
                    counterexamples=[
                        make_instance({"Node": {("Node$0",)}, "next": set()})
                    ],
                )
            ],
        )
        conversation = prompt_agent_conversation(SPEC, report)
        response = MockGPT(seed=0).complete(conversation)
        assert "suspect" in response or "assessment" in response
        # No code block: the Prompt Agent writes guidance, not specs.
        assert "sig Node" not in response


class TestProfiles:
    def test_gpt4_stronger_than_gpt35_unaided(self):
        """Across many seeds with no hints, the GPT-4 profile should emit
        oracle-passing repairs more often than the GPT-3.5 profile."""
        from repro.repair.base import PropertyOracle, RepairTask
        from repro.llm.extract import try_extract_module

        task = RepairTask.from_source(SPEC.replace("n not in n.next", "n in n.next"))

        def wins(profile):
            count = 0
            for seed in range(12):
                gpt = MockGPT(seed=seed, profile=profile)
                response = gpt.complete(
                    initial_multi_round_prompt(task.source)
                )
                module, _ = try_extract_module(response)
                if module is None:
                    continue
                oracle = PropertyOracle(task)
                ok, _ = oracle.evaluate_module(module)
                count += ok
            return count

        assert wins(GPT4_PROFILE) >= wins(GPT35_PROFILE)

    def test_custom_profile_zero_self_check(self):
        profile = CapabilityProfile(self_check_candidates=0)
        gpt = MockGPT(seed=0, profile=profile)
        assert gpt.complete(conversation_for())  # must not crash


class TestHintParsing:
    def test_collect_hints(self):
        text = (
            "Bug location: fact 'Acyclic', constraint 1\n"
            "Fix description: The quantifier of this constraint seems wrong.\n"
            "must make the assertion 'NoCycle' pass."
        )
        hints = MockGPT._collect_hints(text)
        assert "loc" in hints and "fix" in hints and hints["pass"] == "NoCycle"

    def test_parse_feedback_instances(self):
        text = (
            "counterexample 1:\n"
            "    Node = {Node$0, Node$1}\n"
            "    next = {Node$0->Node$1}\n"
        )
        instances = MockGPT._parse_feedback_instances(text)
        assert len(instances) == 1
        assert ("Node$0", "Node$1") in instances[0].relation("next")


class TestSelfCheckLeavesTheCandidateAlone:
    """The self-check lowers command scopes on its own copy: neither the
    base module its session is built over nor the candidate may change."""

    SPEC = """
sig A { f: set A }
fact Acyclic { all a: A | a !in a.^f }
pred Grow { some f }
run Grow for 5 but 4 A expect 1
check { no iden & f } for 6 expect 0
"""

    @staticmethod
    def snapshot(module):
        return print_module(module), [
            (c.default_scope, [(s.sig, s.bound) for s in c.sig_scopes])
            for c in module.commands
        ]

    def test_mentally_verifies_keeps_command_scopes(self):
        base = parse_module(self.SPEC)
        candidate = parse_module(self.SPEC.replace("a.^f", "a.f"))
        field_mutant = parse_module(self.SPEC.replace("set A", "lone A"))
        before = [self.snapshot(m) for m in (base, candidate, field_mutant)]
        scope = MockGPT(seed=0).profile.self_check_scope
        assert scope < 4
        checker = _SelfCheck(base, scope)
        # The session path, then the fallback for diverging signatures.
        for module in (base, candidate, field_mutant):
            assert checker.verifies(module) == _scratch_verifies(
                _reduce_scopes(module, scope)
            )
        assert [self.snapshot(m) for m in (base, candidate, field_mutant)] == before
