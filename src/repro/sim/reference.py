"""Deliberately naive reference implementation of the event engine.

This module exists for one purpose: to be the *obviously correct* side
of the stateful equivalence harness
(``tests/properties/test_engine_equivalence.py``) that pins the
production engine's observable timeline through every hot-loop
refactor (the ready deque, same-instant batches, inline completion
tails, ...).

It mirrors the public surface of :mod:`repro.sim.engine` —
``event`` / ``timeout`` / ``timeout_at`` / ``process`` / ``all_of`` /
``run`` / ``run_until_event`` / ``now`` / ``event_count`` — but none of its
machinery:

* one flat schedule list, fully re-sorted by ``(time, seq)`` before
  every single dispatch — no heap, no ready deque, no merge logic;
* no inline-succeed fast path: every callback travels through the
  schedule;
* no fused tails, no ``__slots__`` tricks, no inlined constructors.

What it is **not**: fast (dispatch is O(n log n) *per event*), a
simulation backend, or a place to add features.  Keep it small and dumb
— its entire value is that a reviewer can convince themselves of its
correctness in one sitting.

The observable contract both engines must agree on, for any operation
sequence: dispatch order is the total order of ``(time, seq)`` with
ties resolving in scheduling (FIFO) order, ``now`` never moves
backwards, every dispatched callback counts once into ``event_count``,
delays must be finite and non-negative, events trigger at most once,
``AllOf`` triggers (deferred, even when empty) with its children's
values in child order, and a process's ``done`` event carries the
generator's return value.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Iterable

ReferenceProcessBody = Generator["ReferenceEvent", Any, Any]


def _check_delay(delay: float) -> None:
    """Reject negative and non-finite delays with the engine's wording."""
    if delay < 0:
        raise ValueError("cannot schedule into the past")
    if not math.isfinite(delay):
        raise ValueError(f"delay must be finite, got {delay!r}")


class ReferenceEvent:
    """A one-shot occurrence; callbacks always defer through the schedule."""

    def __init__(self, env: "ReferenceEnvironment"):
        self.env = env
        self.callbacks: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "ReferenceEvent":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            self.env._schedule(0.0, callback, value)
        return self

    def wait(self, callback: Callable[[Any], None]) -> None:
        if self.triggered:
            self.env._schedule(0.0, callback, self.value)
        else:
            self.callbacks.append(callback)


class ReferenceAllOf(ReferenceEvent):
    """Triggers once every child has; value is child values in order.

    The empty child set defers exactly like the all-already-triggered
    one: the join succeeds on a later dispatch, never at construction.
    """

    def __init__(
        self, env: "ReferenceEnvironment", events: Iterable[ReferenceEvent]
    ):
        super().__init__(env)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            env._schedule(0.0, self.succeed, [])
            return
        for event in self._events:
            event.wait(self._on_child)

    def _on_child(self, _value: Any) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([event.value for event in self._events])


class ReferenceProcess:
    """A running process wrapping a generator body."""

    def __init__(self, env: "ReferenceEnvironment", body: ReferenceProcessBody):
        self.env = env
        self._body = body
        self.done = ReferenceEvent(env)
        env._schedule(0.0, self._resume, None)

    def _resume(self, value: Any) -> None:
        try:
            event = self._body.send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        if not isinstance(event, ReferenceEvent):
            raise TypeError(
                f"process yielded {type(event).__name__}, expected Event"
            )
        event.wait(self._resume)


class ReferenceEnvironment:
    """The naive event loop: one schedule list, sorted before every pop."""

    def __init__(self):
        self._now = 0.0
        #: Every pending callback: (time, seq, callback, value).
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self.event_count = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _schedule(
        self, delay: float, callback: Callable[[Any], None], value: Any
    ) -> None:
        _check_delay(delay)
        self._seq += 1
        self._queue.append((self._now + delay, self._seq, callback, value))

    def event(self) -> ReferenceEvent:
        return ReferenceEvent(self)

    def timeout(self, delay: float, value: Any = None) -> ReferenceEvent:
        """An event triggering ``delay`` seconds from now."""
        event = ReferenceEvent(self)
        self._schedule(delay, event.succeed, value)
        return event

    def timeout_at(self, when: float, value: Any = None) -> ReferenceEvent:
        """An event triggering at absolute simulation time ``when``.

        Not the same as ``timeout(when - now)``: ``now + (when - now)``
        rounds, an absolute schedule does not.  ``when`` may equal
        ``now``.
        """
        if when < self._now:
            raise ValueError("cannot schedule into the past")
        if not math.isfinite(when):
            raise ValueError(f"delay must be finite, got {when!r}")
        event = ReferenceEvent(self)
        self._seq += 1
        self._queue.append((when, self._seq, event.succeed, value))
        return event

    def process(self, body: ReferenceProcessBody) -> ReferenceProcess:
        return ReferenceProcess(self, body)

    def all_of(self, events: Iterable[ReferenceEvent]) -> ReferenceAllOf:
        return ReferenceAllOf(self, events)

    def _pop_next(self) -> tuple[float, int, Callable[[Any], None], Any]:
        """Remove and return the schedule's (time, seq)-minimal entry."""
        self._queue.sort(key=lambda entry: (entry[0], entry[1]))
        return self._queue.pop(0)

    def run(self, until: float | None = None) -> float:
        """Execute events until the schedule drains (or ``until``)."""
        while self._queue:
            self._queue.sort(key=lambda entry: (entry[0], entry[1]))
            time = self._queue[0][0]
            if until is not None and time > until:
                if until > self._now:
                    self._now = until
                return self._now
            _time, _seq, callback, value = self._queue.pop(0)
            self._now = time
            self.event_count += 1
            callback(value)
        return self._now

    def run_until_event(self, event: ReferenceEvent) -> Any:
        """Run until a specific event triggers; returns its value."""
        while not event.triggered and self._queue:
            time, _seq, callback, value = self._pop_next()
            self._now = time
            self.event_count += 1
            callback(value)
        if not event.triggered:
            raise RuntimeError("schedule drained before the event triggered")
        return event.value
