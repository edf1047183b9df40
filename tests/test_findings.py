"""The paper's findings, checked on a private copy of the committed seed-0
matrices (a cache miss fails at once rather than re-running a matrix).  A
change that moves the matrices updates the pin deliberately; a claim that
stops holding is a result to report, not a pin to loosen."""

import dataclasses
import shutil
import time
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.findings import FINDINGS, HELD, check_findings
from repro.experiments.hybrid import compute_hybrid
from repro.experiments.report import generate_report

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / ".repro_cache"
NOT_HELD_AT_SEED_0: set[str] = set()
# The numbers EXPERIMENTS.md quotes in its Finding 1–4 verdicts.
QUOTED = {
    "beafix_best_traditional_on_arepair": "arepair BeAFix 23 vs ATR 21",
    "atr_best_traditional_on_alloy4fun": "alloy4fun ATR 74 vs BeAFix 69",
    "multi_round_auto_best_on_arepair":
        "arepair Multi-Round_Auto 28 vs Multi-Round_None 25",
    "weakest_pair_involves_single_round":
        "Single-Round_Loc+Fix ~ Single-Round_Loc+Pass r = 0.605",
    "arepair_gains_most_from_hybrid": "ARepair 4.85x vs ICEBAR 1.70x",
}


def _no_execution(*args, **kwargs):
    raise AssertionError("committed cache miss: a matrix would re-run")


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    for path in COMMITTED.glob("*.json"):
        shutil.copy(path, cache / path.name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache))
        patch.setattr(runner, "SerialExecutor", _no_execution)
        return tuple(
            runner.run_matrix(runner.RunConfig(benchmark=b, scale=s, seed=0))
            for b, s in (("arepair", 1.0), ("alloy4fun", 0.05))
        )


def test_verdicts_and_quoted_numbers_on_the_committed_matrices(matrices):
    checks = check_findings(*matrices)
    names = [p.__name__ for group in FINDINGS.values() for p in group]
    assert [c.name for c in checks] == names and len(names) == 22
    assert {c.name for c in checks if c.verdict != HELD} == NOT_HELD_AT_SEED_0
    compared = {c.name: c.compared for c in checks}
    assert {name: compared[name] for name in QUOTED} == QUOTED
    text = generate_report(*matrices, None, started=0.0).text
    assert ("  held           loc_pass_below_loc: "
            "arepair 11 vs 20; alloy4fun 27 vs 46") in text
    assert "22 held, 0 not held, 0 not evaluated" in text


def test_a_failed_claim_is_not_held(matrices):
    arepair, alloy4fun = matrices
    outcomes = {spec: dict(row) for spec, row in arepair.outcomes.items()}
    for row in outcomes.values():
        row["Multi-Round_Auto"] = dataclasses.replace(
            row["Multi-Round_Auto"], rep=0)
    weakened = dataclasses.replace(arepair, outcomes=outcomes)
    verdicts = {c.name: c.verdict for c in check_findings(weakened, alloy4fun)}
    assert verdicts["multi_round_auto_best_on_arepair"] == "not held"
    assert verdicts["beafix_best_traditional_on_arepair"] == HELD


def test_a_subset_run_evaluates_nothing_it_did_not_run(matrices):
    text = generate_report(*matrices, ["ATR", "BeAFix"], started=0.0).text
    hybrid = text[text.index("Table II"):text.index("FINDINGS")]
    assert "Round" not in hybrid and "Best hybrid" not in hybrid
    assert hybrid.count("no hybrid pairs ran") == 2
    assert "0 held, 0 not held, 22 not evaluated" in text
    checks = check_findings(*matrices, ["ATR", "BeAFix"])
    assert all(c.compared.startswith("did not run: ") for c in checks)


def test_the_committed_report_is_what_the_committed_matrices_render(matrices):
    def body(text):
        return [line for line in text.splitlines()
                if not line.startswith("report generated in")]

    text = generate_report(*matrices, None, started=time.time()).text
    assert body(text) == body((ROOT / "EXPERIMENTS-report.txt").read_text())


def test_gated_cascades_on_the_committed_matrices(matrices):
    cells = compute_hybrid(list(matrices)).cells
    assert len(cells) == 32
    assert all(cell.llm_first == cell.union for cell in cells.values())
    auto = cells[("ARepair", "Multi-Round_Auto")]
    assert (auto.traditional_first, auto.llm_first, auto.union) == (25, 97, 97)
    short = {(t, llm): (cell.traditional_first, cell.union)
             for (t, llm), cell in cells.items()
             if t != "ARepair" and cell.traditional_first != cell.union}
    assert short == {("ICEBAR", "Single-Round_Pass"): (75, 76),
                     ("ICEBAR", "Single-Round_None"): (63, 64)}
