"""Run ``repro serve`` with its suite loading, persistence and submission
entry points timed, for the traced run of ``service-replay``.

Usage: ``python3 perfbench/traced_serve.py EVENTS.json serve [serve args]``

Every wrapped call is recorded with its monotonic start and end (the clock
is shared by all processes on the host), so the benchmark process can split
the daemon's work into its own set-up and timed windows.  The events are
written to ``EVENTS.json`` when the daemon has drained and exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402

DAEMON_BOUNDARIES = [
    ("benchmarks.generate", "repro.benchmarks.cache", "load_benchmark"),
    ("runtime.persist", "repro.runtime.persist", "atomic_write_json"),
    ("runtime.persist", "repro.runtime.persist", "load_json"),
    ("service.server", "repro.service.daemon", "ReproService.submit"),
]


class EventTrace(layers.LayerTrace):
    """Keeps one timestamped event per wrapped call instead of totals."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[dict] = []

    def _wrap(self, layer: str, fn, counts_write: bool):
        events = self.events

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            result = fn(*args, **kwargs)
            event = {"layer": layer, "start": started, "end": time.monotonic()}
            if counts_write:
                event["bytes"] = os.path.getsize(args[0])
            if layer == "service.server" and result[0] is not None:
                event["job"] = result[0].job_id
            events.append(event)
            return result

        return wrapper


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    events_path, serve_args = argv[0], argv[1:]
    trace = EventTrace()
    trace.install(DAEMON_BOUNDARIES)
    try:
        return repro_main(serve_args)
    finally:
        trace.uninstall()
        Path(events_path).write_text(json.dumps(trace.events), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
