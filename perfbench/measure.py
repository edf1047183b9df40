"""The measuring process.  ``run.py`` starts one per set-up sample, one per
timed run, one per traced run and one per seed it pins; each prints one JSON
object as its last line of standard output.

Phases:

- ``setup``: set up the workload, note the set-up time, tear down.
- ``measure``: set up, time one untraced pass, report the end-to-end
  metrics.  Chunks of the CPU reference workload (``calibrate.py``)
  bracket set-up; chunks of the workload's reference (the CPU one, or
  echo round trips on the service) separate the pieces of the pass.  The
  timings are reported scaled by the host speed they measured.
- ``traced``: set up with the layer wrappers installed, then run the fixed
  pass three times: untraced (the reference wall time), with the wrappers
  and the program's counters on (the per-layer figures), and with the
  counters alone (the determinism check: its work counts must equal the
  traced pass's exactly).  The three passes are interleaved piece by piece
  (a shard, or a block of 1000 jobs), alternating which goes first, so host drift
  over the run falls on all three alike and ``trace_overhead_s`` is the
  wrappers' cost rather than the drift's.
- ``pin``: compute every cell the workloads run on the seed's suite and
  write ``expected/arepair-seed<seed>.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import calibrate
import layers
import workloads
from workloads import Gate

SETUP_CHUNKS = 8
"""Reference chunks taken just before and just after set-up, each side."""


def _timed_setup(workload, t0: float) -> tuple[float, float]:
    """Set up; return the set-up time and the host's slowdown around it.

    The chunks before set-up run after the interpreter started, so their
    time is taken out of the set-up time."""
    before = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    workload.setup()
    setup_s = time.monotonic() - t0 - sum(before)
    after = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    return setup_s, statistics.median(before + after) / calibrate.REFERENCE_CHUNK_S


def phase_setup(workload, t0: float) -> dict:
    try:
        setup_s, slowdown = _timed_setup(workload, t0)
    finally:
        workload.teardown()
    return {"setup_s": setup_s, "setup_slowdown": slowdown}


def phase_measure(workload, seed: int, t0: float) -> dict:
    gate = Gate(seed)
    pieces = []
    try:
        setup_s, setup_slowdown = _timed_setup(workload, t0)
        speed = workload.host_speed()
        speed.tick()
        for part in workload.parts():
            pieces.append(workload.run_pass(False, part))
            speed.tick()
    finally:
        workload.teardown()
    run = _combine(pieces)
    info = workload.gate(run, gate)

    # Each latency is scaled by the slowdown of the piece it ran in, the
    # pass's wall time by the pieces' slowdowns weighted by their walls.
    walls = [piece["wall"] for piece in pieces]
    factors = speed.piece_slowdowns()
    slowdown = sum(w * f for w, f in zip(walls, factors)) / sum(walls)
    latencies = workload.latencies_ms(run)
    per_sample = [
        factor
        for piece, factor in zip(pieces, factors)
        for _ in workload.latencies_ms(piece)
    ]
    raw = workloads.timings(latencies, run["wall"], workload.tail)
    metrics = workloads.scaled_timings(
        latencies, run["wall"], slowdown, per_sample, workload.tail
    )
    runwide = workloads.scaled_timings(
        latencies, run["wall"], slowdown, [slowdown] * len(latencies), workload.tail
    )
    pct = metrics.pop("tail_percentile")
    metrics["peak_rss_mb"] = workload.peak_rss_mb()
    return {
        "setup_s": setup_s,
        "setup_slowdown": setup_slowdown,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "info": {
            **info,
            "tail_percentile": pct,
            "tail_samples": len(latencies),
            "pass_s": run["wall"],
            "raw": raw,
            "runwide": runwide,
            "slowdown": slowdown,
            "reference_chunks_s": speed.chunks,
            "piece_walls_s": walls,
            "gate": gate.mode,
            "problems": gate.problems,
        },
    }


def _combine(runs: list[dict]) -> dict:
    """One run from its pieces: lists are joined, times are summed."""
    combined: dict = {}
    for run in runs:
        for key, value in run.items():
            if isinstance(value, list):
                combined.setdefault(key, []).extend(value)
            else:
                combined[key] = combined.get(key, 0.0) + value
    return combined


def phase_traced(workload, seed: int) -> dict:
    gate = Gate(seed)
    trace = layers.LayerTrace()
    pieces: dict[str, list[dict]] = {"untraced": [], "traced": [], "repeat": []}

    def traced_piece(part) -> None:
        trace.install()
        try:
            pieces["traced"].append(workload.run_pass(True, part))
        finally:
            trace.uninstall()

    trace.install()
    try:
        workload.setup(on_warm=lambda: setattr(trace, "phase", "warmup"))
        setup_end = time.monotonic()
        trace.uninstall()
        trace.phase = "pass"
        for index, part in enumerate(workload.parts()):
            if index % 2:
                traced_piece(part)
            pieces["untraced"].append(workload.run_pass(False, part))
            if not index % 2:
                traced_piece(part)
            pieces["repeat"].append(workload.run_pass(True, part))
    finally:
        trace.uninstall()
        workload.teardown()
    untraced, traced, repeat = (_combine(pieces[key]) for key in ("untraced", "traced", "repeat"))

    workload.check_setup(gate)
    workload.check_run(untraced, gate)  # gated too; only its wall time is reported
    counts = workload.check_run(traced, gate)
    repeated = workload.check_run(repeat, gate)
    mismatched = {
        name: (counts[name], repeated.get(name))
        for name in counts
        if counts[name] != repeated.get(name)
    }

    metrics = layers.pass_metrics(trace, workload.counters(traced))
    traced_wall = traced["wall"]
    attributed = sum(metrics[f"{layer}.self_s"] for layer in layers.PASS_LAYERS)
    metrics.update(
        {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced["wall"],
            "unattributed_s": traced_wall - attributed,
            "trace_overhead_s": traced_wall - untraced["wall"],
            "benchmarks.generate_s": trace.layer_inclusive("setup", "benchmarks.generate"),
            "runtime.persist.writes": trace.writes.get("setup", 0),
            "runtime.persist.bytes": trace.write_bytes.get("setup", 0),
            "runtime.persist.self_s": trace.layer_self("setup", "runtime.persist"),
            "service.server_ms": 0.0,
            "service.client_overhead_ms": 0.0,
            "service.store_hit_ratio": 0.0,
            "service.rejected": 0,
        }
    )
    workload.add_daemon_metrics(metrics, traced, counts, setup_end)
    problems = list(gate.problems)
    if mismatched:
        problems.insert(0, f"work counts differ between traced passes: {mismatched}")
    return {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "deterministic": not mismatched,
        "metrics": metrics,
        "info": {
            "gate": gate.mode,
            "problems": problems,
            "work_counts": counts,
            "pass_s": traced["wall"],
        },
    }


def phase_pin(seed: int) -> dict:
    """Compute and write every cell the workloads run on the seed's suite,
    each in the shard composition its workload uses.  A cell two workloads
    share (ATR) must come out the same in both compositions."""
    from repro.benchmarks.cache import load_benchmark
    from repro.experiments.executor import execute_shard

    specs = load_benchmark("arepair", seed=workloads.SUITE_SEED)
    cells: dict[str, list] = {}
    problems = []
    for name in workloads.WORKLOAD_NAMES:
        for task in workloads.shard_tasks(name, specs, seed):
            result = execute_shard(task)
            for technique in task.techniques:
                key = f"{task.spec.spec_id}|{technique}"
                record = workloads.cell_record(result.outcomes[technique])
                if record[1] in ("crashed", "timeout"):
                    problems.append(f"{key}: {record[1]}")
                elif cells.setdefault(key, record) != record:
                    problems.append(f"{key}: {cells[key]} vs {record} by shard composition")
    if problems:
        raise SystemExit(f"refusing to pin: {problems}")
    payload = {
        "schema": "perfbench-expected/1",
        "seed": seed,
        "regenerate": f"python3 perfbench/run.py --regenerate {seed}",
        "cells": dict(sorted(cells.items())),
    }
    path = workloads.expected_path(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return {"pinned": len(cells), "path": str(path)}


def pin_to_one_cpu() -> None:
    """Keep this process, and the daemon it may start, on one CPU.

    The reference chunks then measure the CPU the work ran on, and the
    service's client and daemon hand each job over on one core rather
    than across two, which the scheduler places differently from run to
    run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(phase: str, name: str, seed: int, seconds: int, t0: float) -> dict:
    if phase == "pin":
        return phase_pin(seed)
    pin_to_one_cpu()
    workload = workloads.make_workload(name, seed, seconds, traced=phase == "traced")
    if phase == "setup":
        return phase_setup(workload, t0)
    if phase == "measure":
        return phase_measure(workload, seed, t0)
    return phase_traced(workload, seed)
