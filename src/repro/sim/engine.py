"""Process-based discrete-event simulation engine.

A minimal, fast substitute for the CSIM library used by the original
SIMPAD: simulation *processes* are Python generators that ``yield``
:class:`Event` objects and are resumed when those events trigger.
Events carry a value; :class:`AllOf` joins several events (used for
parallel bitmap I/O within a subquery) and triggers with the list of
its children's values in child order.

The engine is deliberately small — the behavioural fidelity of the
simulation lives in the server models (disk, CPU, network), not here.

Dispatch order is the total order of ``(time, seq)``: ties at one
simulation time resolve in scheduling (FIFO) order.  Callbacks
scheduled with zero delay *during* dispatch go to a FIFO ready deque
that is merged with the time heap by ``(time, seq)``, avoiding heap
traffic for the dominant zero-delay case while preserving the order
exactly.

``Event.succeed`` never runs a waiter inline: succeed() can sit in the
middle of the currently-dispatched callback, and running the waiter
before that callback's remainder inverts the ``(time, seq)`` order of
anything both sides schedule at the current instant (found by the
stateful equivalence harness, tests/properties/).  The fused server
completions in :mod:`repro.sim.disk` / :mod:`repro.sim.resources` do
keep an inline-succeed tail — there succeed is the dispatched
callback's *final* action, which makes running the sole waiter
immediately indistinguishable from dispatching it next.

The ready-deque path counts into ``Environment.event_count`` exactly
as if the callback had travelled through the heap, so event statistics
are independent of the fast path.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import nextafter
from typing import Any, Callable, Generator, Iterable

#: Type of a simulation process body.
ProcessBody = Generator["Event", Any, Any]

_INF = float("inf")

#: Initial calendar bucket width in simulated seconds.  Service times in
#: the warehouse model are micro- to milliseconds, so the near-future
#: window (the active heap) absorbs almost every push with a single
#: float comparison; think times, arrival gaps and analytic skips land
#: in the far-future buckets.
_CAL_WIDTH = 1.0

#: Refilling a bucket with more entries than this halves the bucket
#: width first, so dense far-future storms do not degenerate into one
#: giant heapify.
_CAL_RESIZE = 512

#: Width floor for the resize loop: below this, remaining ties are
#: (near-)exact and halving cannot spread them further.
_CAL_MIN_WIDTH = 1e-9

#: Bucket keys are ``int(time / width)``; keys at or beyond this are
#: clamped into one shared overflow bucket so extreme-but-finite times
#: cannot overflow the int conversion after aggressive width halving.
_CAL_MAX_KEY = 1 << 62


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
            # instant.  Inline tails survive only in the fused server
            # completions (disk/resources), where succeed is provably
            # the dispatched callback's final action.
            env._seq = seq = env._seq + 1
            env._ready.append((seq, callbacks, value))
        else:
            # ``now`` can sit beyond the calendar window after a
            # ``run(until)`` horizon stop, so even a push at the current
            # time must respect the window split.
            env._seq = seq = env._seq + 1
            if env._now < env._cal_end:
                heapq.heappush(env._heap, (env._now, seq, callbacks, value))
            else:
                env._cal_push((env._now, seq, callbacks, value))
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
        # super().__init__(env), field stores inlined (hot path).
        self.env = env
        self.callbacks = None
        self.triggered = False
        self.value = None
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
    """A running simulation process wrapping a generator body."""

    __slots__ = ("env", "_send", "_resume_cb", "done")

    def __init__(self, env: "Environment", body: ProcessBody):
        self.env = env
        self._send = body.send
        self._resume_cb = self._resume
        # Event(env), field stores inlined (one process per subquery).
        done = Event.__new__(Event)
        done.env = env
        done.callbacks = None
        done.triggered = False
        done.value = None
        self.done = done
        env._schedule(0.0, self._resume_cb, None)

    def _resume(self, value: Any) -> None:
        try:
            event = self._send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        if event.__class__ is not Event and not isinstance(event, Event):
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
    """The event loop: a clock, a calendar queue and a ready deque.

    The schedule is split three ways by urgency:

    * a FIFO **ready deque** for zero-delay callbacks scheduled during
      dispatch (every entry sits at the current simulation time, so the
      merge with the heap only needs a ``(time, seq)`` comparison
      against the heap head);
    * an **active heap** holding every pending entry with
      ``time < _cal_end`` (the near-future window — service completions
      in the warehouse model are micro- to milliseconds, so nearly all
      traffic stays here and pays one extra float comparison over a
      plain binary heap);
    * far-future **calendar buckets**: a dict keyed by
      ``int(time / _cal_width)`` of unsorted entry lists (O(1) append —
      no heap traffic for think times, arrival gaps and analytic
      skips).  When the heap drains, :meth:`_cal_refill` moves the
      earliest bucket into it and advances ``_cal_end``.

    Ordering invariant: bucket keys are monotone in time (IEEE division
    and truncation are monotone), every bucketed entry's time is at or
    beyond ``_cal_end``, and the heap only ever receives entries below
    ``_cal_end`` — so heap ∪ ready always dispatches before any bucket,
    and a refill (heapify of one bucket while the heap is empty)
    preserves the exact ``(time, seq)`` total order of a single heap.
    """

    __slots__ = (
        "_now", "_heap", "_ready", "_seq", "_dispatching", "event_count",
        "_buckets", "_cal_width", "_cal_end",
    )

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        #: Zero-delay callbacks scheduled during dispatch: (seq, cb, value).
        self._ready: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._seq = 0
        self._dispatching = False
        self.event_count = 0
        #: Far-future calendar: bucket key -> unsorted entry list.
        self._buckets: dict[int, list] = {}
        self._cal_width = _CAL_WIDTH
        self._cal_end = _CAL_WIDTH

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _cal_push(self, entry: tuple) -> None:
        """File one entry (with ``time >= _cal_end``) into its bucket."""
        key = entry[0] / self._cal_width
        key = int(key) if key < _CAL_MAX_KEY else _CAL_MAX_KEY
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [entry]
        else:
            bucket.append(entry)

    def _cal_refill(self) -> None:
        """Move the earliest calendar bucket into the (empty) heap.

        Pops the minimal bucket, heapifies its entries and advances
        ``_cal_end`` to the bucket's upper boundary — computed with the
        same ``int(time / width)`` key function used at insert, walked
        down by ulps so that *every* float below the new ``_cal_end``
        provably maps to the popped bucket or below.  A bucket holding
        more than ``_CAL_RESIZE`` entries halves the width (rebucketing
        all pending entries) before the pop, so overloaded buckets keep
        their refill heapify bounded.
        """
        buckets = self._buckets
        width = self._cal_width
        while True:
            index = min(buckets)
            if (
                len(buckets[index]) <= _CAL_RESIZE
                or width <= _CAL_MIN_WIDTH
            ):
                break
            width = self._cal_width = width / 2.0
            entries = [
                # repro-lint: disable=DET-ORDER -- bucket dict insertion
                # order is deterministic; rebuild preserves arrival order.
                entry for bucket in buckets.values() for entry in bucket
            ]
            buckets.clear()
            for entry in entries:
                key = entry[0] / width
                key = int(key) if key < _CAL_MAX_KEY else _CAL_MAX_KEY
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [entry]
                else:
                    bucket.append(entry)
        heap = self._heap
        heap.extend(buckets.pop(index))
        heapq.heapify(heap)
        if index >= _CAL_MAX_KEY:
            # The shared overflow bucket is always the last to drain;
            # afterwards the heap is the whole schedule again.
            self._cal_end = _INF
            return
        end = (index + 1) * width
        prev = nextafter(end, 0.0)
        while int(prev / width) > index:
            end = prev
            prev = nextafter(end, 0.0)
        self._cal_end = end

    def _schedule(
        self, delay: float, callback: Callable[[Any], None], value: Any
    ) -> None:
        # The dominant zero-delay-during-dispatch case keeps its single
        # comparison; other delays pay one extra bound check so NaN
        # (which compares false to everything) and inf never reach the
        # heap, plus the calendar window split.
        if delay == 0.0 and self._dispatching:
            self._seq += 1
            self._ready.append((self._seq, callback, value))
        elif 0.0 <= delay < _INF:
            time = self._now + delay
            self._seq += 1
            if time < self._cal_end:
                heapq.heappush(
                    self._heap, (time, self._seq, callback, value)
                )
            else:
                self._cal_push((time, self._seq, callback, value))
        else:
            _reject_delay(delay)

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event triggering ``delay`` seconds from now."""
        # Event(self), field stores inlined (hot path).
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = None
        event.triggered = False
        event.value = None
        # _schedule(delay, event.succeed, value), inlined (hot path).
        if delay == 0.0 and self._dispatching:
            self._seq = seq = self._seq + 1
            self._ready.append((seq, event.succeed, value))
        elif 0.0 <= delay < _INF:
            time = self._now + delay
            self._seq = seq = self._seq + 1
            if time < self._cal_end:
                heapq.heappush(
                    self._heap, (time, seq, event.succeed, value)
                )
            else:
                self._cal_push((time, seq, event.succeed, value))
        else:
            _reject_delay(delay)
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
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = None
        event.triggered = False
        event.value = None
        self._seq = seq = self._seq + 1
        if when < self._cal_end:
            heapq.heappush(self._heap, (when, seq, event.succeed, value))
        else:
            self._cal_push((when, seq, event.succeed, value))
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
                    if self._buckets:
                        self._cal_refill()
                        continue
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
                    if self._buckets:
                        self._cal_refill()
                        continue
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
