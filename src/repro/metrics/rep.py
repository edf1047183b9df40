"""REP: the study's repair-success metric.

REP compares a proposed fix against the ground truth by executing *every
command of the ground truth* in both specifications and comparing
satisfiability outcomes (equisatisfiability under identical bounds).  All
results matching → REP = 1; any difference (or a candidate that fails to
compile) → REP = 0.

The paper implements this with a Java program driving the Alloy API; here
the bounded analyzer plays that role.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.alloy.errors import AlloyError
from repro.alloy.nodes import Command, Module
from repro.alloy.parser import parse_module
from repro.analysis.canon import shard_memo, shared_parse
from repro.analyzer.analyzer import Analyzer


@dataclass
class RepOutcome:
    """Detailed result of one REP comparison."""

    rep: int
    compiled: bool
    compared_commands: int = 0
    mismatched_commands: list[str] = field(default_factory=list)
    error: str | None = None


def _outcomes(analyzer: Analyzer, commands: list[Command]) -> list[bool] | None:
    results: list[bool] = []
    for command in commands:
        try:
            results.append(analyzer.run_command(command).sat)
        except (AlloyError, RecursionError):
            return None
    return results


def rep_outcome(
    candidate_text: str,
    truth_text: str,
    truth_outcomes: list[bool] | None = None,
) -> RepOutcome:
    """Compute REP with full diagnostics.

    ``truth_outcomes`` may be supplied to reuse cached ground-truth results
    (the experiment harness computes them once per specification).
    """
    try:
        truth = truth_analyzer(truth_text)
    except (AlloyError, RecursionError) as error:
        raise ValueError(f"ground truth does not analyze: {error}") from error
    commands = truth.info.commands
    if not commands:
        raise ValueError("ground truth has no commands to compare")

    if truth_outcomes is None:
        truth_outcomes = _outcomes(truth, commands)
        if truth_outcomes is None:
            raise ValueError("ground truth commands failed to execute")

    try:
        candidate_module = parse_module(candidate_text)
        candidate_analyzer = Analyzer(candidate_module)
    except (AlloyError, RecursionError) as error:
        return RepOutcome(rep=0, compiled=False, error=str(error))

    candidate_outcomes = _outcomes(candidate_analyzer, commands)
    if candidate_outcomes is None:
        return RepOutcome(
            rep=0,
            compiled=True,
            error="a ground-truth command failed on the candidate",
        )
    mismatched = [
        command.target or f"{command.kind}#{index}"
        for index, (command, truth_sat, cand_sat) in enumerate(
            zip(commands, truth_outcomes, candidate_outcomes)
        )
        if truth_sat != cand_sat
    ]
    return RepOutcome(
        rep=0 if mismatched else 1,
        compiled=True,
        compared_commands=len(commands),
        mismatched_commands=mismatched,
    )


def rep(candidate_text: str, truth_text: str) -> int:
    """The REP metric: 1 if equisatisfiable on all commands, else 0."""
    return rep_outcome(candidate_text, truth_text).rep


def truth_analyzer(truth_text: str) -> Analyzer:
    """The ground truth's analyzer: built once per sharing scope (one
    shard's truth oracle, suite generators and REP calls read the same
    spec), and afresh on every call outside one."""
    return shard_memo(
        ("truth", truth_text), lambda: Analyzer(shared_parse(truth_text))
    )


def truth_command_outcomes(truth_text: str) -> list[bool]:
    """Cacheable ground-truth command outcomes (for batched REP runs)."""
    truth = truth_analyzer(truth_text)
    outcomes = _outcomes(truth, truth.info.commands)
    if outcomes is None:
        raise ValueError("ground truth commands failed to execute")
    return outcomes


def rep_module(candidate: Module, truth_text: str) -> int:
    """REP for an already-parsed candidate module."""
    from repro.alloy.pretty import print_module

    return rep(print_module(candidate), truth_text)
