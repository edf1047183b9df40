"""Table II's gated cascades on a hand-built pair of matrices."""

import pytest

from repro.experiments.hybrid import compute_hybrid
from repro.experiments.runner import ResultMatrix, SpecOutcome

PAIR = ["ARepair", "Multi-Round_Auto"]


def _matrix(benchmark: str, rows: dict[str, dict[str, tuple[str, int]]]):
    """``rows`` maps spec -> technique -> (status, rep)."""
    outcomes = {
        spec: {
            technique: SpecOutcome(spec, technique, rep, 0.0, 0.0, status, 0.0)
            for technique, (status, rep) in row.items()
        }
        for spec, row in rows.items()
    }
    return ResultMatrix(benchmark=benchmark, seed=0, scale=1.0,
                        outcomes=outcomes)


def _cell(*matrices):
    return compute_hybrid(list(matrices), PAIR).cells[tuple(PAIR)]


def test_order_matters():
    cell = _cell(
        _matrix("arepair", {
            "a": {"ARepair": ("fixed", 0), "Multi-Round_Auto": ("fixed", 1)},
            "b": {"ARepair": ("fixed", 1), "Multi-Round_Auto": ("not_fixed", 0)},
        }),
        _matrix("alloy4fun", {
            "a": {"ARepair": ("not_fixed", 0), "Multi-Round_Auto": ("fixed", 1)},
        }),
    )
    assert cell.union == 3
    assert cell.traditional_first == 2  # ARepair's claim on arepair:a sticks
    assert cell.llm_first == 3


@pytest.mark.parametrize("status", ["error", "timeout", "crashed", "not_fixed"])
def test_a_first_stage_that_is_not_fixed_falls_through(status):
    cell = _cell(_matrix("arepair", {
        "a": {"ARepair": (status, 0), "Multi-Round_Auto": ("fixed", 1)},
    }))
    assert cell.traditional_first == cell.llm_first == cell.union == 1


def test_a_fixed_verdict_with_rep_0_blocks_the_second_stage():
    # ARepair judges by its own AUnit suite: it may report fixed on a
    # candidate the ground truth rejects, and a user would stop there.
    cell = _cell(_matrix("arepair", {
        "a": {"ARepair": ("fixed", 0), "Multi-Round_Auto": ("fixed", 1)},
    }))
    assert (cell.union, cell.traditional_first, cell.llm_first) == (1, 0, 1)
