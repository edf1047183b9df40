"""Benchmark of the repair pipeline: end-to-end and per-layer figures.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oracle-arepair --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --compare base.out change.out
    python3 perfbench/run.py --regenerate 0 97

A run times one pass over a fixed list of cells or jobs made from the seed
(see ``workloads.py``).  Every measuring process is a fresh interpreter with
``PYTHONHASHSEED=0`` and a private, empty ``REPRO_CACHE_DIR`` under
``.perfbench-work/`` in the checkout, which is removed afterwards.

``--trace 0`` reports the end-to-end metrics, scaled to the host speed of
a fixed reference workload run between the pieces of the pass (see
``calibrate.py``: a CPU chunk on the batch workloads, echo round trips on
the service).  ``setup_s`` is the median of three set-ups, each timed from
the start of its process to the first timed operation and scaled by CPU
reference chunks run just before and after it.  ``--trace 1`` reports the
per-layer metrics from a separate traced run (see ``measure.py``), and
fails when two traced passes disagree on any work count.

The last line of standard output is the result object; the line before it
records the run's start and end times, the host's core count, the tail
percentile used and the correctness gate applied.  ``--compare`` takes two
saved outputs of ``--trace 1`` runs and prints the per-layer deltas.
``--regenerate`` recomputes the pinned cell outcomes in ``expected/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("oracle-arepair", "llm-arepair", "service-replay")
"""Also ``workloads.WORKLOAD_NAMES``; the launcher does not import the
workload code, which needs the ``repro`` package."""
SETUPS = 3
RUN_BUDGET_S = 170.0
"""A whole run, all its processes included, must finish within this."""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def _kill_group(process: subprocess.Popen) -> None:
    """Stop a measuring process that failed, and the daemon it may have left."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def _spawn(workdir: Path, phase: str, args, deadline: float) -> dict:
    """Run one measuring process and return its result object."""
    workdir.mkdir(parents=True)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(paths),
        REPRO_CACHE_DIR=str(workdir / "cache"),
    )
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        phase,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--t0",
        repr(time.monotonic()),
    ]
    # Its own session, so a timeout can stop the daemon it may have started.
    process = subprocess.Popen(
        command, cwd=workdir, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(process)
        raise SystemExit(f"perfbench: {phase} process exceeded the run budget")
    except BaseException:
        _kill_group(process)
        raise
    if process.returncode != 0:
        _kill_group(process)
        raise SystemExit(f"perfbench: {phase} process exited with {process.returncode}")
    lines = stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


def _declared_metrics(key: str) -> list[str] | None:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return [entry["name"] for entry in declared[key]]


def _units() -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        entry["name"]: entry["unit"]
        for entry in declared["end_to_end"] + declared["per_layer"]
    }


def _terminate(signum, frame) -> None:
    # Unwind through _spawn, which stops the measuring process group.
    raise SystemExit(128 + signum)


def launch(args) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    started_at, started = _now(), time.monotonic()
    deadline = started + RUN_BUDGET_S
    workdir = WORK / f"{os.getpid()}-{time.time_ns()}"
    try:
        if args.trace:
            result = _spawn(workdir / "traced", "traced", args, deadline)
        else:
            setups = [
                _spawn(workdir / f"setup{i}", "setup", args, deadline)
                for i in range(SETUPS - 1)
            ]
            result = _spawn(workdir / "measure", "measure", args, deadline)
            setups.append(result)
            scaled = [setup["setup_s"] / setup["setup_slowdown"] for setup in setups]
            result["metrics"]["setup_s"] = statistics.median(scaled)
            result["info"]["setup_samples_s"] = [setup["setup_s"] for setup in setups]
            result["info"]["setup_slowdowns"] = [setup["setup_slowdown"] for setup in setups]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    expected = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if expected is not None and sorted(expected) != sorted(metrics):
        raise SystemExit(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(expected) ^ set(metrics))}"
        )
    units = _units()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": started_at,
        "ended_at": _now(),
        "run_s": time.monotonic() - started,
        "host_cores": os.cpu_count(),
        **result["info"],
    }
    print(json.dumps({"run": record}))
    for problem in result["info"]["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = result["failed"] == 0 and result.get("deterministic", True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    if not result.get("deterministic", True):
        print("perfbench: FAIL: work counts did not repeat", file=sys.stderr)
        return 1
    return 0


def _last_result(path: str) -> dict:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return json.loads(lines[-1])["metrics"]


def compare(base_path: str, change_path: str) -> int:
    """Print per-layer deltas between two traced outputs, with base values."""
    base, change = _last_result(base_path), _last_result(change_path)
    print(f"{'metric':40} {'base':>14} {'change':>14} {'delta':>14} {'delta%':>8}")
    for name in sorted(set(base) | set(change)):
        old = base.get(name, {}).get("value")
        new = change.get(name, {}).get("value")
        if old is None or new is None:
            print(f"{name:40} {'' if old is None else old:>14} {'' if new is None else new:>14}")
            continue
        delta = new - old
        share = f"{100 * delta / old:+.1f}" if old else "n/a"
        print(f"{name:40} {old:>14.6g} {new:>14.6g} {delta:>+14.6g} {share:>8}")
    return 0


def regenerate(seeds: list[int]) -> int:
    args = argparse.Namespace(workload="oracle-arepair", seconds=0)
    for seed in seeds:
        args.seed = seed
        workdir = WORK / f"pin-{os.getpid()}-{seed}"
        try:
            result = _spawn(workdir, "pin", args, time.monotonic() + 3600)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"pinned {result['pinned']} cells of seed {seed} in {result['path']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--regenerate", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.child:
        import measure

        print(json.dumps(measure.main(args.child, args.workload, args.seed, args.seconds, args.t0)))
        return 0
    if args.regenerate:
        return regenerate(args.regenerate)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
