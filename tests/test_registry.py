"""The public technique registry behind the experiment engine."""

import pytest

from repro.benchmarks.faults import FaultySpec
from repro.experiments.paper_values import TECHNIQUE_ORDER
from repro.llm.prompts import RepairHints
from repro.repair import registry
from repro.repair.arepair import ARepair
from repro.repair.atr import Atr
from repro.repair.beafix import BeAFix
from repro.repair.icebar import Icebar
from repro.repair.multi_round import MultiRoundLLM
from repro.repair.single_round import SingleRoundLLM

from .conftest import LINKED_LIST_SPEC


def _spec(spec_id="reg-test", benchmark="adhoc") -> FaultySpec:
    return FaultySpec(
        spec_id=spec_id,
        benchmark=benchmark,
        domain="adhoc",
        model_name=spec_id,
        faulty_source=LINKED_LIST_SPEC,
        truth_source=LINKED_LIST_SPEC,
        fault_description="",
        depth=0,
        hints=RepairHints(),
    )


class TestBuiltins:
    def test_standard_techniques_are_the_papers_twelve(self):
        assert registry.all_techniques() == TECHNIQUE_ORDER
        assert len(registry.all_techniques()) == 12
        assert registry.all_techniques() == (
            registry.TRADITIONAL + registry.SINGLE_ROUND + registry.MULTI_ROUND
        )

    @pytest.mark.parametrize(
        ("name", "expected_type"),
        [
            ("ARepair", ARepair),
            ("ICEBAR", Icebar),
            ("BeAFix", BeAFix),
            ("ATR", Atr),
            ("Single-Round_Loc", SingleRoundLLM),
            ("Multi-Round_Auto", MultiRoundLLM),
        ],
    )
    def test_create_builds_the_right_tool(self, name, expected_type):
        tool = registry.create(name, _spec(), seed=0)
        assert isinstance(tool, expected_type)

    def test_create_builds_a_fresh_tool_per_call(self):
        spec = _spec()
        assert registry.create("ATR", spec, 0) is not registry.create(
            "ATR", spec, 0
        )

    def test_unknown_technique_raises(self):
        with pytest.raises(ValueError, match="unknown technique 'NoSuchTool'"):
            registry.create("NoSuchTool", _spec(), seed=0)


class TestRegistration:
    @pytest.fixture
    def scratch_name(self):
        name = "ScratchTechnique"
        yield name
        registry.unregister(name)

    def test_register_and_create(self, scratch_name):
        built = []

        def factory(spec, seed):
            built.append((spec.spec_id, seed))
            return Atr()

        registry.register(scratch_name, factory)
        tool = registry.create(scratch_name, _spec(), seed=3)
        assert isinstance(tool, Atr)
        assert built == [
            ("reg-test", registry.cell_seed(_spec(), scratch_name, 3))
        ]

    def test_duplicate_registration_raises(self, scratch_name):
        registry.register(scratch_name, lambda spec, seed: Atr())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(scratch_name, lambda spec, seed: Atr())

    def test_replace_is_the_escape_hatch(self, scratch_name):
        registry.register(scratch_name, lambda spec, seed: Atr())
        registry.register(
            scratch_name, lambda spec, seed: BeAFix(), replace=True
        )
        assert isinstance(registry.create(scratch_name, _spec(), 0), BeAFix)

    def test_unregister(self, scratch_name):
        registry.register(scratch_name, lambda spec, seed: Atr())
        registry.unregister(scratch_name)
        assert not registry.is_registered(scratch_name)
        registry.unregister(scratch_name)  # idempotent

    def test_non_standard_registration_keeps_the_matrix_shape(
        self, scratch_name
    ):
        registry.register(scratch_name, lambda spec, seed: Atr())
        assert scratch_name not in registry.all_techniques()
        assert scratch_name in registry.names()


class TestCellSeed:
    def test_deterministic(self):
        spec = _spec()
        assert registry.cell_seed(spec, "ATR", 0) == registry.cell_seed(
            spec, "ATR", 0
        )

    def test_independent_streams(self):
        spec = _spec()
        seeds = {
            registry.cell_seed(spec, "ATR", 0),
            registry.cell_seed(spec, "BeAFix", 0),
            registry.cell_seed(spec, "ATR", 1),
            registry.cell_seed(_spec(spec_id="other"), "ATR", 0),
        }
        assert len(seeds) == 4

    def test_fits_a_32_bit_seed(self):
        value = registry.cell_seed(_spec(), "ATR", 0)
        assert 0 <= value < 2**32
