"""FIFO servers: the building block for disks and CPUs.

Processors and disks "are explicitly modeled as servers to realistically
capture access conflicts and delays" (Section 5).  A request joins the
queue with its service time and a resume callable; its completion
wakes that callable with the request's value (see
:meth:`~repro.sim.engine.Environment._deliver`).

Accounting rules:

* ``queue_time`` accrues when service starts (waiting ends);
* ``busy_time`` and ``request_count`` accrue when service *completes*,
  so a truncated run (``Environment.run(until=...)``) never reports
  more busy time than has actually elapsed.  Because the server is FIFO
  and single, completion order equals start order, so the accrual order
  (and thus the floating-point sum) is unchanged by this rule.

:meth:`FifoServer.submit` takes a pre-priced duration, validated at
submit in the caller's frame.  Disks price their own reads at service
start instead, because a seek depends on where the head is then
(:class:`~repro.sim.disk.Disk`).
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Any, Callable

from repro.sim.engine import Environment

#: Tolerance for the utilization sanity check (float accumulation).
_UTILIZATION_SLACK = 1e-9


class FifoServer:
    """A single server with a FIFO queue."""

    __slots__ = (
        "env",
        "name",
        "_queue",
        "_busy",
        "_complete_cb",
        "busy_time",
        "request_count",
        "queue_time",
    )

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        #: The bound completion callback, bound once — pushing
        #: ``self._complete`` would allocate a fresh bound method per
        #: request on the hot path.
        self._complete_cb = self._complete
        #: Waiting requests: (duration, resume, value, enqueue_time).
        self._queue: deque[
            tuple[float, Callable[[Any], Any], Any, float]
        ] = deque()
        self._busy = False
        # Statistics
        self.busy_time = 0.0
        self.request_count = 0
        self.queue_time = 0.0

    def _reject(self, duration: float) -> None:
        """Refuse a service time outside ``[0, inf)``.

        Callers test ``not (0.0 <= duration < inf)``, which NaN fails
        too; a NaN completion time would otherwise reach the heap.
        """
        raise ValueError(
            f"service time on {self.name!r} must be finite and "
            f"non-negative, got {duration!r}"
        )

    def submit(
        self, duration: float, resume: Callable[[Any], Any], value: Any = None
    ) -> None:
        """Enqueue a request of ``duration`` seconds; its completion
        wakes ``resume`` with ``value``.

        The duration is checked here, in the caller's frame, so a bad
        one never reaches the queue, idle server or busy.
        """
        if not (0.0 <= duration < math.inf):
            self._reject(duration)
        env = self.env
        if self._busy:
            self._queue.append((duration, resume, value, env._now))
        else:
            self._busy = True
            # Scheduling inlined (hot path): a zero-duration completion
            # lands on the heap at (now, seq), which the dispatch merge
            # orders exactly like the ready deque would.
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + duration, seq, self._complete_cb,
                 (resume, value, duration)),
            )

    def _complete(self, entry: tuple[Any, Any, float]) -> None:
        waiter, value, duration = entry
        self.busy_time += duration
        self.request_count += 1
        queue = self._queue
        env = self.env
        if queue:
            next_duration, next_waiter, next_value, enqueued = (
                queue.popleft()
            )
            self.queue_time += env._now - enqueued
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + next_duration, seq, self._complete_cb,
                 (next_waiter, next_value, next_duration)),
            )
        else:
            self._busy = False
        env._deliver(waiter, value)

    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this server spent busy.

        Completed service can never exceed wall time on a single FIFO
        server; a ratio above 1.0 means broken accounting, so it raises
        instead of being clamped out of sight.
        """
        if elapsed <= 0:
            return 0.0
        ratio = self.busy_time / elapsed
        if ratio > 1.0 + _UTILIZATION_SLACK:
            raise AssertionError(
                f"server {self.name!r} accounted busy_time {self.busy_time!r}"
                f" > elapsed {elapsed!r} (utilization {ratio:.6f})"
            )
        return ratio
