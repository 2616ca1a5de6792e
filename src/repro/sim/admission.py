"""Admission control for open-system workloads.

Arriving queries do not start executing immediately: an
:class:`AdmissionController` grants at most ``max_mpl`` concurrent
admissions (the multiprogramming level) and parks the overflow in a
FIFO queue.  Queueing delay — the time between a query's arrival and
its admission — is the open-system metric the closed-stream modes
cannot produce, and the controller is where it accrues.

The controller checks its own invariant on every transition (``active``
may never exceed the cap), so any scheduling refactor that would admit
too eagerly fails loudly inside the engine rather than skewing metrics
silently.
"""

from __future__ import annotations

from collections import deque

from repro.sim.config import POSITIVE_INT, optional
from repro.sim.engine import Environment, Event


class AdmissionController:
    """MPL-capped FIFO admission.

    ``max_mpl=None`` admits everything immediately (still counting
    statistics), which models a system without admission control.
    """

    def __init__(self, env: Environment, max_mpl: int | None = None):
        optional(POSITIVE_INT).check("AdmissionController", "max_mpl", max_mpl)
        self.env = env
        self.max_mpl = max_mpl
        self._waiting: deque[Event] = deque()
        self.active = 0
        #: High-water marks, for engine-invariant probes and metrics.
        self.peak_active = 0
        self.peak_waiting = 0
        self.admitted_total = 0
        self.queued_total = 0

    # -----------------------------------------------------------------
    def request(self) -> Event:
        """An event that triggers when the caller is admitted.

        Already triggered on return if a slot is free; otherwise the
        caller waits in FIFO order behind earlier arrivals.
        """
        # env.event() rather than Event(env): the controller only needs
        # the event protocol (succeed/wait), so it also runs unchanged
        # on the naive reference engine in the equivalence harness.
        event = self.env.event()
        if self.max_mpl is None or self.active < self.max_mpl:
            self._grant(event)
        else:
            self._waiting.append(event)
            self.queued_total += 1
            if len(self._waiting) > self.peak_waiting:
                self.peak_waiting = len(self._waiting)
        return event

    def release(self) -> None:
        """Return one admission slot; admits the longest waiter if any."""
        if self.active < 1:
            raise RuntimeError("release without a matching admission")
        self.active -= 1
        if self._waiting:
            self._grant(self._waiting.popleft())

    def _grant(self, event: Event) -> None:
        self.active += 1
        self.admitted_total += 1
        if self.max_mpl is not None and self.active > self.max_mpl:
            raise RuntimeError(
                f"admission invariant violated: {self.active} active "
                f"> max_mpl {self.max_mpl}"
            )
        if self.active > self.peak_active:
            self.peak_active = self.active
        event.succeed()

    @property
    def waiting(self) -> int:
        return len(self._waiting)
