"""Process-based discrete-event simulation engine.

A minimal, fast substitute for the CSIM library used by the original
SIMPAD: simulation *processes* are Python generators that ``yield``
:class:`Event` objects and are resumed when those events trigger.
Events carry a value; :class:`AllOf` joins several events and
triggers with the list of its children's values in child order.

The engine is deliberately small — the behavioural fidelity of the
simulation lives in the server models (disk, CPU, network), not here.

The schedule is one binary heap of ``(time, seq, callback, value)``
entries plus a FIFO ready deque, and dispatch order is the total order
of ``(time, seq)``: ties at one simulation time resolve in scheduling
(FIFO) order.  Callbacks scheduled with zero delay *during* dispatch go
to the ready deque, which is merged with the heap by ``(time, seq)``,
avoiding heap traffic for the dominant zero-delay case while preserving
the order exactly.

``Event.succeed`` never runs a waiter inline: succeed() can sit in the
middle of the currently-dispatched callback, and running the waiter
before that callback's remainder inverts the ``(time, seq)`` order of
anything both sides schedule at the current instant (found by the
stateful equivalence harness, tests/properties/).  Server completions
and network hops end in :meth:`Environment._deliver` instead: waking
the request's waiter is the dispatched callback's *final* action, which
makes running a sole waiter immediately indistinguishable from
dispatching it next.  Every server request takes such a waiter: a
resume callable, either a self-driven body's own ``send`` (the
scheduler's subqueries) or a :class:`Process`'s resume that its body
hands over before parking (the coordinator).

The ready-deque path counts into ``Environment.event_count`` exactly
as if the callback had travelled through the heap, so event statistics
are independent of the fast path.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

#: Type of a simulation process body.
ProcessBody = Generator["Event", Any, Any]

_INF = float("inf")


def _reject_delay(delay: float) -> None:
    """Raise the right ValueError for a negative or non-finite delay.

    NaN compares false to everything, so a plain ``delay < 0`` guard
    lets it through to ``heapq`` where it corrupts the ``(time, seq)``
    total order; ``inf`` keeps the order but parks a callback at a time
    that can never be reached.  Both are caller bugs and rejected here.
    """
    if delay < 0:
        raise ValueError("cannot schedule into the past")
    raise ValueError(f"delay must be finite, got {delay!r}")


class Event:
    """A one-shot occurrence processes can wait on.

    ``callbacks`` holds ``None`` (no waiter), a bare callable (the
    dominant single-waiter case, no list allocation) or a list of
    callables.
    """

    __slots__ = ("env", "callbacks", "triggered", "value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Any = None
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, waking all waiters (in FIFO order)."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks = self.callbacks
        if callbacks is None:
            return self
        self.callbacks = None
        env = self.env
        if callbacks.__class__ is list:
            for callback in callbacks:
                env._schedule(0.0, callback, value)
        elif env._dispatching:
            # _schedule(0.0, callbacks, value), inlined (hot path).
            # Never run the waiter inline here: succeed() may sit in
            # the middle of the current callback, and running the
            # waiter before that callback's remainder inverts the
            # (time, seq) order of anything both sides schedule at this
            # instant.  Inline tails survive only in
            # Environment._deliver, which server completions and network
            # hops call as the dispatched callback's final action.
            env._seq = seq = env._seq + 1
            env._ready.append((seq, callbacks, value))
        else:
            env._schedule(0.0, callbacks, value)
        return self

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register a callback; fires immediately if already triggered."""
        if self.triggered:
            self.env._schedule(0.0, callback, self.value)
            return
        current = self.callbacks
        if current is None:
            self.callbacks = callback
        elif current.__class__ is list:
            current.append(callback)
        else:
            self.callbacks = [current, callback]


class AllOf(Event):
    """An event that triggers once every child event has triggered.

    Its value is the list of the children's values in child order, so
    joined work (e.g. parallel bitmap I/O over staggered fragments) can
    propagate per-fragment results through the join.

    An empty child set triggers with ``[]`` on the *next* dispatch, the
    same deferred semantics as a child set whose members have all
    already triggered — never synchronously at construction.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        # A caller-owned list is used as-is (callers must not mutate it
        # afterwards); other iterables are materialised.
        if events.__class__ is not list:
            events = list(events)
        self._events = events
        self._pending = len(events)
        if self._pending == 0:
            # Defer exactly like the all-children-already-triggered
            # case (whose `wait` callbacks are scheduled, not run
            # inline): an observer checking `.triggered` right after
            # construction sees the same untriggered state whether the
            # child set is empty or already complete.
            env._schedule(0.0, self.succeed, [])
            return
        on_child = self._on_child
        for event in events:
            event.wait(on_child)

    def _on_child(self, _value: Any) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([event.value for event in self._events])


class Process:
    """A running simulation process wrapping a generator body.

    The body yields an :class:`Event` to wait on it, or ``None`` to
    park after handing the process's resume to a request itself.
    """

    __slots__ = ("env", "_send", "_resume_cb", "done")

    def __init__(self, env: "Environment", body: ProcessBody):
        self.env = env
        self._send = body.send
        self._resume_cb = self._resume
        self.done = Event(env)
        env._schedule(0.0, self._resume_cb, None)

    def _resume(self, value: Any) -> None:
        try:
            event = self._send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        if event.__class__ is not Event and not isinstance(event, Event):
            if event is None:
                # Parked: the body handed this process's resume to a
                # request (or a wake-up), which resumes it directly.
                return
            raise TypeError(
                f"process yielded {type(event).__name__}, expected Event"
            )
        # event.wait(self._resume_cb), inlined (hot path): one wait per
        # yield of every process.
        if event.triggered:
            self.env._schedule(0.0, self._resume_cb, event.value)
            return
        current = event.callbacks
        if current is None:
            event.callbacks = self._resume_cb
        elif current.__class__ is list:
            current.append(self._resume_cb)
        else:
            event.callbacks = [current, self._resume_cb]


class Environment:
    """The event loop: a clock, one binary heap and a ready deque.

    * The **ready deque** holds zero-delay callbacks scheduled during
      dispatch.  Every entry sits at the current simulation time, so
      merging it with the heap needs only a ``(time, seq)`` comparison
      against the heap head, and the dominant zero-delay case costs no
      heap traffic.
    * The **heap** holds every other pending ``(time, seq, callback,
      value)`` entry, near or far future alike.  The CPU, disk and FIFO
      servers push their completions onto it with ``heapq.heappush``
      and a fresh ``seq``, exactly as :meth:`_schedule` would.

    Far-future entries (think times, arrival gaps) share the heap:
    pending entries are few, since service times are micro- to
    milliseconds, and a bucketed calendar in front of the heap made no
    benchmark workload faster.
    """

    __slots__ = (
        "_now", "_heap", "_ready", "_seq", "_dispatching", "event_count",
    )

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        #: Zero-delay callbacks scheduled during dispatch: (seq, cb, value).
        self._ready: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._seq = 0
        self._dispatching = False
        self.event_count = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _schedule(
        self, delay: float, callback: Callable[[Any], None], value: Any
    ) -> None:
        # The dominant zero-delay-during-dispatch case keeps its single
        # comparison; other delays pay one extra bound check so NaN
        # (which compares false to everything) and inf never reach the
        # heap.
        if delay == 0.0 and self._dispatching:
            self._seq += 1
            self._ready.append((self._seq, callback, value))
        elif 0.0 <= delay < _INF:
            self._seq += 1
            heapq.heappush(
                self._heap, (self._now + delay, self._seq, callback, value)
            )
        else:
            _reject_delay(delay)

    def _deliver(
        self, waiter: Callable[[Any], None], value: Any = None
    ) -> None:
        """Wake a completed request's resume callable ``waiter`` with
        ``value``.

        The one completion tail of the servers and network hops; it
        must be the dispatched callback's final action.  The waiter
        runs inline, counted as one event, when the ready deque is
        empty and the heap head lies strictly later: exactly when its
        ready-deque hop would be the next dispatch.  Otherwise it takes
        that hop, with a fresh ``seq``.
        """
        heap = self._heap
        if not self._ready and (not heap or heap[0][0] > self._now):
            self.event_count += 1
            waiter(value)
        else:
            self._seq = seq = self._seq + 1
            self._ready.append((seq, waiter, value))

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event triggering ``delay`` seconds from now."""
        event = Event(self)
        self._schedule(delay, event.succeed, value)
        return event

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event triggering at absolute simulation time ``when``.

        For callers that must land on an exact precomputed instant;
        ``timeout(when - now)`` is *not* equivalent because
        ``now + (when - now)`` rounds.  No simulator component calls
        it; it stays part of the engine surface that the equivalence
        harness pins against the reference engine.  ``when`` may equal
        ``now`` (triggers on the next dispatch, after anything already
        scheduled at the current instant).
        """
        if when < self._now:
            raise ValueError("cannot schedule into the past")
        if not when < _INF:
            # NaN falls through the first comparison to this one.
            raise ValueError(f"delay must be finite, got {when!r}")
        event = Event(self)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, event.succeed, value))
        return event

    def process(self, body: ProcessBody) -> Process:
        """Start a new process; returns a handle whose ``done`` event
        triggers with the generator's return value."""
        return Process(self, body)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def run(self, until: float | None = None) -> float:
        """Execute events until the schedule drains (or ``until``)."""
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        count = 0
        was_dispatching = self._dispatching
        self._dispatching = True
        try:
            if until is not None and until < self._now:
                # A horizon already behind the clock (e.g. a resumed
                # run with a stale `until`): nothing may dispatch — not
                # even leftover ready-deque entries, which sit at the
                # *current* time and hence beyond the horizon — and the
                # clock must not move backwards.
                return self._now
            while True:
                if ready and (
                    not heap
                    or heap[0][0] > self._now
                    or heap[0][1] > ready[0][0]
                ):
                    _seq, callback, value = ready.popleft()
                    count += 1
                    callback(value)
                    continue
                if not heap:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    # until >= self._now here (pre-loop check), so this
                    # only ever advances the clock.
                    self._now = until
                    return self._now
                _time, _seq, callback, value = pop(heap)
                self._now = time
                count += 1
                callback(value)
                # Same-instant batch: while the ready deque is empty,
                # every remaining heap entry at this time carries a
                # smaller seq than anything the callbacks can schedule
                # now, so draining them back-to-back reproduces the
                # merge order exactly without re-checking it per pop.
                while heap and heap[0][0] == time and not ready:
                    _time, _seq, callback, value = pop(heap)
                    count += 1
                    callback(value)
        finally:
            self._dispatching = was_dispatching
            self.event_count += count
        return self._now

    def run_until_event(self, event: Event) -> Any:
        """Run until a specific event triggers; returns its value."""
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        count = 0
        was_dispatching = self._dispatching
        self._dispatching = True
        try:
            while not event.triggered:
                if ready and (
                    not heap
                    or heap[0][0] > self._now
                    or heap[0][1] > ready[0][0]
                ):
                    _seq, callback, value = ready.popleft()
                    count += 1
                    callback(value)
                    continue
                if not heap:
                    break
                time, _seq, callback, value = pop(heap)
                self._now = time
                count += 1
                callback(value)
                # Same-instant batch (see `run`); additionally stops as
                # soon as the awaited event triggers so no callback runs
                # that a caller-observed stop should have deferred.
                while (
                    not event.triggered
                    and heap
                    and heap[0][0] == time
                    and not ready
                ):
                    _time, _seq, callback, value = pop(heap)
                    count += 1
                    callback(value)
        finally:
            self._dispatching = was_dispatching
            self.event_count += count
        if not event.triggered:
            raise RuntimeError("schedule drained before the event triggered")
        return event.value
