"""Smoke tests: every example script runs to completion."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 420) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "REP vs ground truth: 1" in result.stdout

    def test_hotel_locking(self):
        result = run_example("hotel_locking.py")
        assert result.returncode == 0, result.stderr
        assert "check KeysPartitioned: SAT" in result.stdout

    def test_llm_conversation(self):
        result = run_example("llm_conversation.py")
        assert result.returncode == 0, result.stderr
        assert "FEEDBACK LEVEL: Auto" in result.stdout
        assert "Repair Agent replies" in result.stdout

    @pytest.mark.slow
    def test_benchmark_survey(self):
        result = run_example("benchmark_survey.py")
        assert result.returncode == 0, result.stderr
        assert "per fault class:" in result.stdout


def test_every_example_is_run_by_a_test():
    run = set(re.findall(r'run_example\("([^"]+)"', Path(__file__).read_text()))
    untested = {path.name for path in EXAMPLES.glob("*.py")} - run
    assert not untested, f"examples no test runs: {sorted(untested)}"
