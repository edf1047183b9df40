"""The committed result cache must match what the code computes today.

``repro table1`` and friends read ``.repro_cache/`` first, so a stale
matrix there silently reports numbers the code no longer produces.  This
test re-executes a few shards of the ARepair benchmark in a private cache
directory and compares every cell with the committed matrix.  The chosen
specs are ones whose traditional-tool cells have drifted before.
"""

import shutil
from pathlib import Path

import pytest

from repro.benchmarks.cache import load_benchmark
from repro.experiments.executor import ShardTask, execute_shard
from repro.experiments.runner import MATRIX_SCHEMA, RunConfig, _matrix_key
from repro.runtime.persist import load_json

COMMITTED = Path(__file__).resolve().parents[1] / ".repro_cache"
SPECS = ("Student#0011", "Student#0012", "Student#0013")
TECHNIQUES = ("ARepair", "ICEBAR", "BeAFix", "ATR")


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    """A cache directory holding only the committed ARepair benchmark."""
    cache = tmp_path / "cache"
    cache.mkdir()
    for path in COMMITTED.glob("arepair-0-*.json"):
        shutil.copy(path, cache / path.name)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    return cache


def test_committed_arepair_matrix_is_current(private_cache):
    techniques = RunConfig(benchmark="arepair").technique_list()
    path = COMMITTED / _matrix_key("arepair", 0, 1.0, techniques)
    committed = load_json(path, schema=MATRIX_SCHEMA)["outcomes"]
    specs = {spec.spec_id: spec for spec in load_benchmark("arepair", seed=0)}

    for spec_id in SPECS:
        result = execute_shard(
            ShardTask(spec=specs[spec_id], techniques=TECHNIQUES, seed=0)
        )
        for technique in TECHNIQUES:
            fresh = result.outcomes[technique]
            cell = committed[spec_id][technique]
            assert (fresh.rep, fresh.status, fresh.tm, fresh.sm) == (
                cell["rep"],
                cell["status"],
                cell["tm"],
                cell["sm"],
            ), f"{spec_id} / {technique}"
