"""The paper's four findings as named predicates over the two matrices.

Each predicate is a function named after the claim its docstring states.
It returns whether the claim held on the Table I, Figure 2, Figure 3 and
Table II projections, with the numbers it compared.  A claim needing a
technique that did not run is *not evaluated*, never *not held*.  "Best"
is strict (a tie is no win); "weakest" and "beats" keep the ``<=``/``>=``
of the shape assertions they replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, le, lt

from repro.experiments.figure2 import Figure2, compute_figure2
from repro.experiments.figure3 import Figure3, compute_figure3
from repro.experiments.hybrid import HybridAnalysis, compute_hybrid
from repro.experiments.paper_values import TECHNIQUE_ORDER as ALL
from repro.experiments.runner import ResultMatrix
from repro.repair.registry import MULTI_ROUND, SINGLE_ROUND, TRADITIONAL

HELD, NOT_HELD, NOT_EVALUATED = "held", "not held", "not evaluated"
LLM = SINGLE_ROUND + MULTI_ROUND
PAIRS = [(a, b) for i, a in enumerate(ALL) for b in ALL[i + 1:]]


@dataclass(frozen=True)
class FindingCheck:
    """One predicate's verdict, with the numbers it compared."""

    finding: str
    name: str
    verdict: str
    compared: str


class _NotRun(Exception):
    pass


@dataclass
class _Study:
    ran: list[str]
    rep: dict[str, dict[str, int]]  # benchmark -> technique -> REP count
    figure2: Figure2
    figure3: Figure3
    hybrid: HybridAnalysis

    def need(self, *techniques: str) -> None:
        missing = [t for t in dict.fromkeys(techniques) if t not in self.ran]
        if missing:
            more = f" and {len(missing) - 2} more" if len(missing) > 2 else ""
            raise _NotRun(f"did not run: {', '.join(missing[:2])}{more}")

    def total(self, technique: str) -> int:
        return sum(n[technique] for n in self.rep.values())


def _best(study: _Study, benchmark: str, technique: str, rivals: list[str]):
    study.need(*rivals)
    n = study.rep[benchmark]
    second = max((t for t in rivals if t != technique), key=n.get)
    compared = f"{technique} {n[technique]} vs {second} {n[second]}"
    return n[technique] > n[second], f"{benchmark} {compared}"


def _on_both(study: _Study, needs: list[str], pick, holds):
    study.need(*needs)
    pairs = {b: tuple(pick(n)) for b, n in study.rep.items()}
    return all(holds(x, y) for x, y in pairs.values()), "; ".join(
        f"{b} {x:.4g} vs {y:.4g}" for b, (x, y) in pairs.items()
    )


def _weakest_on_both(study: _Study, technique: str, rivals: list[str]):
    others = [t for t in rivals if t != technique]
    return _on_both(
        study, rivals, lambda n: (n[technique], min(map(n.get, others))), le
    )


def _cluster_above_cross(study: _Study, cluster: list[str]):
    study.need(*cluster, *SINGLE_ROUND)
    inner = study.figure3.cluster_min(cluster)
    cross = study.figure3.cross_cluster_min(cluster, SINGLE_ROUND)
    return inner >= cross, f"min r {inner:.3f} vs {cross:.3f}"


def multi_round_beats_traditional_on_arepair(study: _Study):
    """On ARepair the best multi-round setting >= the best traditional."""
    study.need(*MULTI_ROUND, *TRADITIONAL)
    n = study.rep["arepair"]
    multi, trad = max(MULTI_ROUND, key=n.get), max(TRADITIONAL, key=n.get)
    return n[multi] >= n[trad], f"{multi} {n[multi]} vs {trad} {n[trad]}"


def multi_round_strongest_llm_family(study: _Study):
    """On each benchmark the multi-round mean beats the single-round mean."""
    return _on_both(study, LLM, lambda n: [
        sum(map(n.get, f)) / len(f) for f in (MULTI_ROUND, SINGLE_ROUND)
    ], gt)


def beafix_best_traditional_on_arepair(study: _Study):
    """BeAFix is the best traditional tool on the ARepair benchmark."""
    return _best(study, "arepair", "BeAFix", TRADITIONAL)


def atr_best_traditional_on_alloy4fun(study: _Study):
    """ATR is the best traditional tool on Alloy4Fun."""
    return _best(study, "alloy4fun", "ATR", TRADITIONAL)


def multi_round_auto_best_on_arepair(study: _Study):
    """Multi-Round Auto is the best technique on the ARepair benchmark."""
    return _best(study, "arepair", "Multi-Round_Auto", ALL)


def arepair_weakest_traditional(study: _Study):
    """ARepair repairs <= every traditional tool, on both benchmarks."""
    return _weakest_on_both(study, "ARepair", TRADITIONAL)


def single_round_none_weakest_prompt(study: _Study):
    """Single-Round None repairs <= every prompt setting, on both
    benchmarks."""
    return _weakest_on_both(study, "Single-Round_None", SINGLE_ROUND)


def loc_pass_below_loc(study: _Study):
    """Single-Round Loc+Pass repairs fewer than Loc, on both benchmarks."""
    pair = ["Single-Round_Loc+Pass", "Single-Round_Loc"]
    return _on_both(study, pair, lambda n: map(n.get, pair), lt)


def similarity_in_unit_range(study: _Study):
    """Every technique's mean TM and SM lies in [0, 1]."""
    study.need(*ALL)
    values = [*study.figure2.tm.values(), *study.figure2.sm.values()]
    low, high = min(values), max(values)
    return 0.0 <= low and high <= 1.0, f"{low:.3f}–{high:.3f}"


def sm_exceeds_tm(study: _Study):
    """SM exceeds TM for all twelve techniques."""
    study.need(*ALL)
    tm, sm = study.figure2.tm, study.figure2.sm
    low = min(ALL, key=lambda t: sm[t] - tm[t])
    above = sum(sm[t] > tm[t] for t in ALL)
    margin = f"smallest margin {low} {sm[low] - tm[low]:+.3f}"
    return above == len(ALL), f"{above}/{len(ALL)}; {margin}"


def traditional_sm_highest(study: _Study):
    """The best traditional tool's mean SM is >= every LLM setting's."""
    study.need(*ALL)
    sm = study.figure2.sm
    trad, llm = max(TRADITIONAL, key=sm.get), max(LLM, key=sm.get)
    return sm[trad] >= sm[llm], f"{trad} {sm[trad]:.4f} vs {llm} {sm[llm]:.4f}"


def heatmap_well_formed(study: _Study):
    """Every technique correlates 1 with itself, and r is symmetric."""
    study.need(*ALL)
    r = study.figure3.r
    ones = sum(r(t, t) == 1.0 for t in ALL)
    skew = sum(r(a, b) != r(b, a) for a, b in PAIRS)
    return ones == len(ALL) and not skew, f"{ones} ones; {skew} asymmetric"


def all_pairs_significant(study: _Study):
    """Every pairwise correlation is significant at p < 0.001."""
    study.need(*ALL)
    p = [study.figure3.correlations[pair].p_value for pair in PAIRS]
    below = sum(v < 0.001 for v in p)
    return below == len(p), f"{below}/{len(p)}; largest p {max(p):.1e}"


def traditional_cluster_above_single_round(study: _Study):
    """Traditional tools' min r with each other >= with single-round."""
    return _cluster_above_cross(study, TRADITIONAL)


def multi_round_cluster_above_single_round(study: _Study):
    """Multi-round settings' min r with each other >= with single-round."""
    return _cluster_above_cross(study, MULTI_ROUND)


def weakest_pair_involves_single_round(study: _Study):
    """The heatmap's weakest correlation involves a single-round setting."""
    study.need(*ALL)
    a, b = min(PAIRS, key=lambda pair: study.figure3.r(*pair))
    r = study.figure3.r(a, b)
    return a in SINGLE_ROUND or b in SINGLE_ROUND, f"{a} ~ {b} r = {r:.3f}"


def hybrid_grid_complete(study: _Study):
    """All 32 (traditional, LLM) pairs are analysed."""
    study.need(*ALL)
    cells = len(study.hybrid.cells)
    return cells == len(TRADITIONAL) * len(LLM), f"{cells} pairs"


def hybrid_union_dominates_constituents(study: _Study):
    """Every hybrid's union >= its stronger part, its overlap <= its weaker."""
    study.need(*ALL)
    cells = study.hybrid.cells.values()
    ok = sum(
        c.union >= max(c.traditional_repairs, c.llm_repairs)
        and c.overlap <= min(c.traditional_repairs, c.llm_repairs)
        for c in cells
    )
    return ok == len(cells), f"{ok}/{len(cells)} pairs"


def best_hybrid_is_multi_round(study: _Study):
    """The best hybrid pairs a traditional tool with a multi-round setting."""
    study.need(*ALL)
    b = study.hybrid.best()
    return b.llm in MULTI_ROUND, f"{b.traditional} + {b.llm} = {b.union}"


def best_hybrid_beats_every_technique(study: _Study):
    """The best hybrid repairs >= any technique alone."""
    study.need(*ALL)
    top, union = max(ALL, key=study.total), study.hybrid.best().union
    return union >= study.total(top), f"{union} vs {top} {study.total(top)}"


def multi_round_hybrids_beat_single_round(study: _Study):
    """Per traditional partner, the multi-round hybrid mean >= single-round."""
    study.need(*ALL)
    cells = study.hybrid.cells
    means = {trad: [sum(cells[(trad, t)].union for t in f) / len(f)
                    for f in (MULTI_ROUND, SINGLE_ROUND)]
             for trad in TRADITIONAL}
    return all(m >= s for m, s in means.values()), "; ".join(
        f"{trad} {m:.1f} vs {s:.1f}" for trad, (m, s) in means.items())


def arepair_gains_most_from_hybrid(study: _Study):
    """ARepair's best hybrid multiplies its own repairs the most."""
    study.need(*ALL)
    cells = study.hybrid.cells
    best = {t: max(cells[(t, llm)].union for llm in LLM) for t in TRADITIONAL}
    gain = {t: best[t] / max(study.total(t), 1) for t in TRADITIONAL}
    second = max((t for t in gain if t != "ARepair"), key=gain.get)
    ours, theirs = gain["ARepair"], gain[second]
    return ours > theirs, f"ARepair {ours:.2f}x vs {second} {theirs:.2f}x"


FINDINGS = {
    "Finding 1 (Table I)": (
        multi_round_beats_traditional_on_arepair,
        multi_round_strongest_llm_family, beafix_best_traditional_on_arepair,
        atr_best_traditional_on_alloy4fun, multi_round_auto_best_on_arepair,
        arepair_weakest_traditional, single_round_none_weakest_prompt,
        loc_pass_below_loc),
    "Finding 2 (Figure 2)": (
        similarity_in_unit_range, sm_exceeds_tm, traditional_sm_highest),
    "Finding 3 (Figure 3)": (
        heatmap_well_formed, all_pairs_significant,
        traditional_cluster_above_single_round,
        multi_round_cluster_above_single_round,
        weakest_pair_involves_single_round),
    "Finding 4 (Table II + Figure 4)": (
        hybrid_grid_complete, hybrid_union_dominates_constituents,
        best_hybrid_is_multi_round, best_hybrid_beats_every_technique,
        multi_round_hybrids_beat_single_round, arepair_gains_most_from_hybrid),
}


def check_findings(
    arepair: ResultMatrix, alloy4fun: ResultMatrix, techniques=None
) -> list[FindingCheck]:
    """Every predicate's verdict; ``techniques`` is the subset that ran."""
    ran, matrices = list(techniques or ALL), [arepair, alloy4fun]
    rep = {m.benchmark: {t: m.rep_count(t) for t in ran} for m in matrices}
    study = _Study(ran, rep, compute_figure2(matrices, ran),
                   compute_figure3(matrices, ran),
                   compute_hybrid(matrices, ran))
    return [
        FindingCheck(finding, predicate.__name__, *_verdict(predicate, study))
        for finding, predicates in FINDINGS.items() for predicate in predicates
    ]


def _verdict(predicate, study: _Study) -> tuple[str, str]:
    try:
        held, compared = predicate(study)
    except _NotRun as missing:
        return NOT_EVALUATED, str(missing)
    return HELD if held else NOT_HELD, compared


def render_findings(checks: list[FindingCheck]) -> str:
    """The FINDINGS section of the study report."""
    lines = ["FINDINGS — the paper's claims checked on these matrices"]
    for finding in FINDINGS:
        lines.append(finding)
        lines += [f"  {c.verdict:<15}{c.name}: {c.compared}"
                  for c in checks if c.finding == finding]
    verdicts = [c.verdict for c in checks]
    lines.append(", ".join(
        f"{verdicts.count(v)} {v}" for v in (HELD, NOT_HELD, NOT_EVALUATED)
    ))
    return "\n".join(lines)
