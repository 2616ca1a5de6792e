"""FIFO servers: the building block for disks and CPUs.

Processors and disks "are explicitly modeled as servers to realistically
capture access conflicts and delays" (Section 5).  A request joins the
queue; its service time is computed when service *starts* (disks need
the head position at that moment), and its completion wakes the
request's *waiter* with the request's value.  A waiter is a fresh
:class:`~repro.sim.engine.Event` or a resume callable (see
:meth:`~repro.sim.engine.Environment._deliver`).

Accounting rules:

* ``queue_time`` accrues when service starts (waiting ends);
* ``busy_time`` and ``request_count`` accrue when service *completes*,
  so a truncated run (``Environment.run(until=...)``) never reports
  more busy time than has actually elapsed.  Because the server is FIFO
  and single, completion order equals start order, so the accrual order
  (and thus the floating-point sum) is unchanged by this rule.

``service`` may be a callable priced at service start (disks) or a
plain float for pre-priced requests (CPU bursts) — the float form
avoids a closure per request on the hot path.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable

from repro.sim.engine import Environment, Event

#: Tolerance for the utilization sanity check (float accumulation).
_UTILIZATION_SLACK = 1e-9


class FifoServer:
    """A single server with a FIFO queue and start-time service pricing."""

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
        #: Waiting requests: (service, waiter, value, enqueue_time).
        self._queue: deque[
            tuple[Callable[[], float] | float, Any, Any, float]
        ] = deque()
        self._busy = False
        # Statistics
        self.busy_time = 0.0
        self.request_count = 0
        self.queue_time = 0.0

    def _price(self, service: Callable[[], float] | float) -> float:
        """Service duration of a request reaching the server."""
        return service() if callable(service) else service

    def submit(
        self, service: Callable[[], float] | float, value: Any = None
    ) -> Event:
        """Enqueue a request; returns its completion event.

        ``service`` is priced by :meth:`_price` when the request reaches
        the server: a float is taken verbatim, a callable is invoked.
        """
        env = self.env
        done = Event(env)
        if self._busy:
            self._queue.append((service, done, value, env._now))
        else:
            self._busy = True
            duration = self._price(service)
            if duration < 0:
                raise ValueError(f"negative service time on {self.name!r}")
            # Scheduling inlined (hot path): a zero-duration completion
            # lands on the heap at (now, seq), which the dispatch merge
            # orders exactly like the ready deque would.
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + duration, seq, self._complete_cb,
                 (done, value, duration)),
            )
        return done

    def _complete(self, entry: tuple[Any, Any, float]) -> None:
        waiter, value, duration = entry
        self.busy_time += duration
        self.request_count += 1
        queue = self._queue
        env = self.env
        if queue:
            service, next_waiter, next_value, enqueued = queue.popleft()
            self.queue_time += env._now - enqueued
            # Pre-priced floats (CPU bursts, the hot case) skip the
            # _price indirection.
            next_duration = (
                service
                if service.__class__ is float
                else self._price(service)
            )
            if next_duration < 0:
                raise ValueError(f"negative service time on {self.name!r}")
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
