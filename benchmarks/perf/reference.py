"""Fixed reference loop that calibrates host speed for the perf benchmark.

The benchmark divides each timed simulation by the time of this loop,
measured right before and right after it, so that a host running slower
for a while (CPU steal on a shared VM) moves both numbers together and
their ratio stays put.  The loop is shaped like the simulator's hot
path: a ``heapq`` schedule of ``(time, seq, process)`` entries, one
generator ``send`` per dispatched entry, and float math to price the
next delay.

The work is fixed, never calibrated against the clock, and the result is
a deterministic checksum.  It imports nothing from ``repro`` and keeps
at most :data:`PROCESSES` generators alive, so it never sets the peak
RSS of the process that times it.  Editing this file changes every
normalised benchmark number: it is a benchmark change that resets the
baseline.
"""

from __future__ import annotations

import heapq
import math
import time

#: Live generators in the schedule.
PROCESSES = 512
#: Dispatched schedule entries per call.
STEPS = 120_000


def _process(ident: int):
    """A process body: receives the clock, yields its next delay."""
    state = ident * 2654435761 % 4294967296
    total = 0.0
    while True:
        now = yield total
        state = (state * 1103515245 + 12345) % 2147483648
        draw = (state + 1) / 2147483649.0
        # Only correctly rounded IEEE operations, so the checksum is the
        # same on every platform.
        total += math.sqrt(draw) * 1e-3 + now * 1e-9
        total = total * 0.5 + draw * draw * 1e-3


def run(steps: int = STEPS, processes: int = PROCESSES) -> float:
    """Dispatch ``steps`` schedule entries; returns a checksum."""
    bodies = [_process(i) for i in range(processes)]
    heap = []
    for i, body in enumerate(bodies):
        next(body)
        heap.append((i * 1e-6, i, i))
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    seq = processes
    checksum = 0.0
    for _ in range(steps):
        now, _seq, i = pop(heap)
        delay = bodies[i].send(now)
        checksum += delay
        seq += 1
        push(heap, (now + delay, seq, i))
    for body in bodies:
        body.close()
    return checksum


def timed() -> float:
    """Seconds one :func:`run` takes on this host right now."""
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


if __name__ == "__main__":
    print(f"{timed() * 1000:.1f} ms  checksum {run()!r}")
