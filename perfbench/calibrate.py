"""How fast the host runs right now, from a fixed reference workload.

The host's speed wanders by a fifth or more over tens of seconds (see
``README.md``), far more than the bounds a regression is judged by.  A run
therefore interleaves short chunks of a fixed reference workload with the
pieces of its timed pass, and reports its timings scaled to the speed the
reference had when the benchmark was tuned.

The reference is stdlib-only and never imports the program, so a change to
the program cannot move it: a faster program still reads faster.  Its
content never changes, which is what makes its time a measure of the host.
It is a small DPLL search over a fixed random 3-SAT instance plus a
tokenizer over a fixed text: dictionary, list and small-object work of the
kind the program's solver and parser do.

A replayed service job costs mostly a unix-socket connection, a few frames
and an event-loop turn on each side, which the CPU chunk tracks poorly.
The service workload therefore uses a second reference, :class:`EchoReference`:
round trips to a stdlib asyncio echo server in a child process, shaped like
a submission (connect, one request line, an ack and an event line back).

Run ``python3 calibrate.py echo SOCKET`` to start that echo server by hand.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

REFERENCE_CHUNK_S = 0.04
"""Median time of one chunk on the host the benchmark was tuned on (a
2-vCPU x86-64 VM).  Scaled timings read as if the host ran at that speed."""

REFERENCE_ROUND_TRIP_S = 0.00029
"""Median time of one echo round trip on the same host."""

ROUND_TRIPS = 300
"""Echo round trips per reading of :class:`EchoReference` (about 90 ms)."""

_REQUEST = (
    json.dumps(
        {
            "op": "submit",
            "job": {"benchmark": "arepair", "spec_id": "addr#0000", "techniques": ["ATR"]},
            "watch": True,
        }
    )
    + "\n"
).encode()

_VARS = 50
_RNG = random.Random(5)
_CLAUSES = tuple(
    tuple(v if _RNG.random() < 0.5 else -v for v in _RNG.sample(range(1, _VARS + 1), 3))
    for _ in range(int(_VARS * 4.26))
)
_TEXT = " ".join(
    f"pred p{i} [n: Node] {{ all x: n.^next | x.val > {i} and no x.left & x.right }}"
    for i in range(40)
)


def _dpll(assign: dict) -> dict | None:
    changed = True
    while changed:
        changed = False
        for clause in _CLAUSES:
            free = []
            for lit in clause:
                value = assign.get(abs(lit))
                if value is None:
                    free.append(lit)
                elif value == (lit > 0):
                    break
            else:
                if not free:
                    return None
                if len(free) == 1:
                    assign[abs(free[0])] = free[0] > 0
                    changed = True
    for var in range(1, _VARS + 1):
        if var not in assign:
            for value in (True, False):
                found = _dpll({**assign, var: value})
                if found is not None:
                    return found
            return None
    return assign


def _tokens() -> int:
    tokens = []
    word = []
    for char in _TEXT:
        if char.isalnum() or char == "_":
            word.append(char)
            continue
        if word:
            tokens.append(("id", "".join(word)))
            word = []
        if not char.isspace():
            tokens.append(("op", char))
    return len({token for token in tokens})


def chunk() -> float:
    """Run one chunk of the reference workload and return its wall time.

    The garbage collector is off meanwhile: a collection would walk the
    program's heap, and the chunk's time would then depend on the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _dpll({})
        _tokens()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


async def _echo(reader, writer) -> None:
    request = json.loads(await reader.readline())
    writer.write((json.dumps({"type": "ack", "job_id": "0" * 16, "state": "queued"}) + "\n").encode())
    writer.write((json.dumps({"type": "event", "state": "done", "job": request["job"]}) + "\n").encode())
    await writer.drain()
    writer.close()


async def _serve_echo(path: str) -> None:
    server = await asyncio.start_unix_server(_echo, path=path)
    async with server:
        await server.serve_forever()


class EchoReference:
    """A stdlib echo server in a child process, and round trips to it.

    The child inherits the CPU affinity of the process that starts it, so
    a pinned benchmark process and its echo server share one CPU, as the
    service's client and daemon do."""

    def __init__(self, path: str = "echo.sock") -> None:
        self.path = path
        self.server = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "echo", path],
            stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self._round_trip()
                return
            except OSError:
                if self.server.poll() is not None or time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError("the echo reference server did not start")
                time.sleep(0.01)

    def _round_trip(self) -> None:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(self.path)
            sock.sendall(_REQUEST)
            with sock.makefile("rb") as reader:
                if not (reader.readline() and reader.readline()):
                    raise OSError("the echo server closed the connection early")

    def chunk(self) -> float:
        """Mean wall time of one round trip over ``ROUND_TRIPS`` trips."""
        started = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            self._round_trip()
        return (time.perf_counter() - started) / ROUND_TRIPS

    def close(self) -> None:
        if self.server.poll() is None:
            self.server.terminate()
        self.server.wait()


class HostSpeed:
    """Reference chunks taken around the pieces of a timed pass.

    Call :meth:`tick` before the first piece and after every piece; each
    tick runs ``per_tick`` chunks of ``probe`` and keeps their mean time,
    which ``reference`` holds the tuning host's median of.
    """

    def __init__(self, per_tick: int = 1, probe=chunk, reference: float = REFERENCE_CHUNK_S) -> None:
        self.per_tick = per_tick
        self.probe = probe
        self.reference = reference
        self.chunks: list[float] = []

    def tick(self) -> None:
        self.chunks.append(sum(self.probe() for _ in range(self.per_tick)) / self.per_tick)

    def piece_slowdowns(self, reach: int = 2) -> list[float]:
        """How much slower than the tuning host the host ran during each
        piece (1.25 means 25% slower): the mean chunk time of the ticks on
        either side of it and ``reach`` more ticks each way, over
        ``reference``.  The wider window smooths the chunks' own
        noise; the host's drift is slower than a few pieces."""
        pieces = len(self.chunks) - 1
        slowdowns = []
        for index in range(pieces):
            window = self.chunks[max(0, index - reach) : index + 2 + reach]
            slowdowns.append(sum(window) / len(window) / self.reference)
        return slowdowns


if __name__ == "__main__":
    if sys.argv[1:2] != ["echo"] or len(sys.argv) != 3:
        raise SystemExit("usage: python3 calibrate.py echo SOCKET")
    asyncio.run(_serve_echo(sys.argv[2]))
