"""Disk model with track-position-dependent seek times.

"The disk model calculates varying seek times based on track positions
rather than giving constant or stochastically distributed response
times" (Section 5).  We use the classical square-root seek curve,
calibrated so that a uniformly random seek over the whole platter takes
``avg_seek_ms``:  E[sqrt(|x - y|)] = 8/15 for uniform x, y, hence
``max_seek = avg_seek / (8/15)``.

This reproduces the paper's observation that speed-up over the disk
count is *slightly superlinear*: with more disks each holds less data,
so the head travels shorter distances.

A request of several extents is priced as the seek from the head to its
first extent plus a *tail*: every later extent's service term (seek,
settle, transfer) and its seek.  Only the first seek depends on where
the head is.  The work expander hands out shared, base-relative
:class:`ExtentTemplate` objects, and a template's tail is prepared once,
at its first pricing, and stored on the template for the pricing disk's
:class:`DiskParameters`.  Pricing then folds the prepared terms left to
right, in the per-extent order, so service times, ``seek_time`` and the
head position are bit-identical to pricing every extent on its own.

Why a tail does not depend on the base page: with a power-of-two
``pages_per_track`` (64 by default), dividing an integer page number by
it is exact, and so is the difference of two such quotients.  A later
extent's seek distance ``(base + o) / ppt - (base + e) / ppt`` is then
bit for bit ``(o - e) / ppt`` for every base.  Other track sizes, and
transient extent lists (buffer-pool miss subsets, :meth:`Disk.read_extents`),
compute their tail per request, through the same
:meth:`Disk.seek_seconds` formula, without caching.  Unprepared lists of
``VECTOR_MIN_EXTENTS`` or more extents are priced through numpy instead,
with the same element operations and accumulation order.
"""

from __future__ import annotations

import math
from heapq import heappush
from itertools import islice
from typing import Any, Callable, Sequence

import numpy as np

from repro.sim.config import DiskParameters
from repro.sim.engine import Environment
from repro.sim.resources import FifoServer

#: E[sqrt(|x-y|)] for independent uniform x, y on [0, 1].
_MEAN_SQRT_DISTANCE = 8.0 / 15.0

#: Extent count from which `_service` switches to the numpy path.  The
#: scalar loop wins below this because of per-call array overhead.
VECTOR_MIN_EXTENTS = 32


class ExtentTemplate(list):
    """A shared, base-relative list of ``(offset, pages)`` extents.

    The work expander builds one per distinct request layout and lets
    many requests read it against different base pages.  ``tail`` holds
    the pricing tail a :class:`Disk` prepared for it (see
    :meth:`Disk._tail`), tagged with that disk's
    :class:`DiskParameters`; a disk with other parameters prepares and
    stores its own.  Offsets must be integer page numbers.
    """

    __slots__ = ("tail",)

    def __init__(self, extents=()):
        super().__init__(extents)
        self.tail = None


class Disk(FifoServer):
    """One disk: a FIFO server whose service time models the mechanics.

    A request is one or more page extents read in one go (the subquery's
    prefetch granules); each extent pays a seek from the current head
    position, the settle/controller delay, and the per-page transfer.

    Statistics semantics: ``pages_read`` and ``seek_time`` accrue when a
    request's service is *priced* (service start — the moment the head
    movement is decided), never at submit, so a truncated run does not
    count I/O that was still queued when the clock stopped.
    """

    __slots__ = (
        "disk_id",
        "params",
        "_head_track",
        "_total_tracks",
        "_max_seek_s",
        "_pages_per_track",
        "_settle_s",
        "_per_page_s",
        "_exact_tails",
        "pages_read",
        "seek_time",
    )

    def __init__(self, env: Environment, params: DiskParameters, disk_id: int):
        super().__init__(env, name=f"disk{disk_id}")
        self.disk_id = disk_id
        self.params = params
        self._head_track = 0.0
        self._total_tracks = params.capacity_pages / params.pages_per_track
        self._max_seek_s = (
            params.avg_seek_ms / 1000.0 / _MEAN_SQRT_DISTANCE
        )
        self._pages_per_track = params.pages_per_track
        self._settle_s = params.settle_controller_ms / 1000.0
        self._per_page_s = params.per_page_ms / 1000.0
        # Template tails hold for every base only if page / track is
        # exact, i.e. for a power-of-two track size (module docstring).
        ppt = params.pages_per_track
        self._exact_tails = (
            type(ppt) is int and ppt > 0 and not ppt & (ppt - 1)
        )
        # Statistics
        self.pages_read = 0
        self.seek_time = 0.0

    def seek_seconds(self, from_track: float, to_track: float) -> float:
        """Square-root seek curve between two tracks."""
        distance = abs(to_track - from_track)
        if distance == 0:
            return 0.0
        return self._max_seek_s * math.sqrt(distance / self._total_tracks)

    def read_extents(
        self, extents: Sequence[tuple[int, int]], resume: Callable[[Any], Any]
    ) -> None:
        """Read several extents in one request (coalesced granules);
        the completion wakes ``resume``.

        Extents are validated here, at the call site, so a malformed
        request fails in the caller's stack frame instead of mid-event
        inside the service pricing.
        """
        if not extents:
            raise ValueError("need at least one extent")
        capacity = self.params.capacity_pages
        total_pages = 0
        for start, n_pages in extents:
            if n_pages <= 0:
                raise ValueError("extent must cover at least one page")
            if start < 0 or start + n_pages > capacity:
                raise ValueError(
                    f"extent ({start}, {n_pages}) lies outside the disk's "
                    f"pages [0, capacity_pages={capacity})"
                )
            total_pages += n_pages
        self.read_validated(list(extents), total_pages, 0, resume)

    def read_validated(
        self,
        extents: list[tuple[int, int]],
        total_pages: int,
        base: int,
        resume: Callable[[Any], Any],
    ) -> None:
        """Trusted :meth:`read_extents`: extents prechecked, pages presummed.

        For callers (the subquery scheduler) that construct the extent
        list themselves and already track its page sum.  ``extents`` may
        be offsets against ``base`` (shared extent templates).  The
        completion wakes ``resume`` with ``total_pages``.  Queued
        requests use the flat ``(extents, resume, total_pages, enqueued,
        base)`` form that :meth:`_complete` hands straight to
        :meth:`_service` — no closure and no nested service tuple per
        request.  Service times are sums of seek, settle and transfer
        components, which :class:`DiskParameters` validates as finite
        and non-negative, so the duration check of
        :meth:`FifoServer.submit` is vacuous here.
        """
        env = self.env
        if self._busy:
            self._queue.append(
                (extents, resume, total_pages, env._now, base)
            )
        else:
            self._busy = True
            duration = self._service(extents, base)
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + duration, seq, self._complete_cb,
                 (resume, total_pages, duration)),
            )

    def read_batch(
        self,
        requests: list[tuple[list, int, int]],
        resume: Callable[[Any], Any],
    ) -> None:
        """Several reads submitted back-to-back, fused into one
        completion that wakes ``resume``.

        ``requests`` is a list of ``(extents, total_pages, base)``
        triples (the :meth:`read_validated` argument forms).  On a FIFO
        disk, requests submitted consecutively with no intervening
        event are provably served back-to-back — later arrivals queue
        behind the whole batch — so the per-request completions carry
        no information beyond the last one.  The fusion replays the
        per-request accounting *exactly* (chained float completion
        times, per-request pricing order against the moving head,
        per-request ``queue_time``/``busy_time`` accumulator additions)
        and wakes ``resume`` once, at the last request's completion
        instant, with the batch's page total.  Only ``event_count``
        differs from issuing the requests individually.
        """
        env = self.env
        if self._busy:
            # 3-tuple batch form; _complete dispatches queue entries on
            # their length (5 = flat single read, 4 = generic submit).
            self._queue.append((requests, resume, env._now))
        else:
            self._busy = True
            end, durations, pages = self._price_batch(
                requests, env._now, 0.0, False
            )
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (end, seq, self._complete_cb, (resume, pages, durations)),
            )

    def _price_batch(
        self,
        requests: list[tuple[list, int, int]],
        start: float,
        enqueued: float,
        charge_first: bool,
    ) -> tuple[float, list[float], int]:
        """Price a fused batch whose first service starts at ``start``.

        Returns ``(completion_time, per_request_durations, total_pages)``.
        Each request's wait is charged to ``queue_time`` exactly as the
        unfused path would at its service start (the first request of an
        idle-disk submit never waited, hence ``charge_first``); the
        chained ``t = t + duration`` float additions reproduce the
        unfused per-completion times bit for bit.
        """
        durations: list[float] = []
        append = durations.append
        service = self._service
        queue_time = self.queue_time
        t = start
        pages = 0
        for extents, total_pages, base in requests:
            if charge_first:
                queue_time += t - enqueued
            else:
                charge_first = True
            duration = service(extents, base)
            append(duration)
            t = t + duration
            pages += total_pages
        self.queue_time = queue_time
        return t, durations, pages

    def _complete(self, entry) -> None:
        """:meth:`FifoServer._complete` with the disk's flat queued form
        ``(extents, waiter, total_pages, enqueued, base)`` priced by a
        direct :meth:`_service` call (the hot case on saturated disks;
        inlining the single-extent pricing here measured no faster on
        ``monthclass_1store``); 4-tuples from the generic
        :meth:`FifoServer.submit` carry a duration validated at submit.
        Service times from :meth:`_service` are sums of seek, settle
        and transfer components, which :class:`DiskParameters`
        validates as finite and non-negative.
        """
        waiter, value, duration = entry
        if duration.__class__ is not list:
            self.busy_time += duration
            self.request_count += 1
        else:
            # Fused batch (read_batch): replay the per-request
            # accumulator additions in request order.
            for d in duration:
                self.busy_time += d
            self.request_count += len(duration)
        queue = self._queue
        env = self.env
        if queue:
            next_entry = queue.popleft()
            if len(next_entry) == 5:
                extents, next_waiter, next_value, enqueued, base = next_entry
                self.queue_time += env._now - enqueued
                next_duration = self._service(extents, base)
                time = env._now + next_duration
            elif len(next_entry) == 3:
                # Queued fused batch: every request waited, so the
                # first one charges queue_time too.
                requests, next_waiter, enqueued = next_entry
                time, next_duration, next_value = self._price_batch(
                    requests, env._now, enqueued, True
                )
            else:
                next_duration, next_waiter, next_value, enqueued = next_entry
                self.queue_time += env._now - enqueued
                time = env._now + next_duration
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (time, seq, self._complete_cb,
                 (next_waiter, next_value, next_duration)),
            )
        else:
            self._busy = False
        env._deliver(waiter, value)

    def _service(
        self, extents: Sequence[tuple[int, int]], base: int = 0
    ) -> float:
        """Price one request at its service start; moves the head.

        The seek from the head to the first extent is computed here; the
        rest of the request is its tail (:meth:`_tail`), prepared once
        per :class:`ExtentTemplate` and folded left to right.  Skipping
        a zero seek in the ``seek_time`` fold is exact (``x + 0.0 == x``
        for the non-negative sums here); every other addition keeps the
        per-extent order of pricing each extent in turn.
        """
        if (
            len(extents) >= VECTOR_MIN_EXTENTS
            and extents.__class__ is not ExtentTemplate
        ):
            return self._service_vector(extents, base)
        offset, n_pages = extents[0]
        start_page = base + offset
        ppt = self._pages_per_track
        seek = self.seek_seconds(self._head_track, start_page / ppt)
        self.seek_time += seek
        total = seek + self._settle_s + n_pages * self._per_page_s
        if len(extents) == 1:
            self.pages_read += n_pages
            self._head_track = (start_page + n_pages) / ppt
            return total
        if extents.__class__ is ExtentTemplate and self._exact_tails:
            tail = extents.tail
            if tail is None or tail[0] is not self.params:
                tail = extents.tail = self._tail(extents, 0)
        else:
            tail = self._tail(extents, base)
        _params, seeks, terms, pages, end = tail
        for term in terms:
            total += term
        if seeks:
            seek_time = self.seek_time
            for step in seeks:
                seek_time += step
            self.seek_time = seek_time
        self.pages_read += pages
        self._head_track = (base + end) / ppt
        return total

    def _tail(
        self, extents: Sequence[tuple[int, int]], base: int
    ) -> tuple[DiskParameters, list[float], list[float], int, int]:
        """Pricing of ``extents[1:]``, each seeking from the end of the
        extent before it.

        Returns ``(params, seeks, terms, pages, end)``: this disk's
        parameters (the key of a stored template tail), the nonzero
        seeks and the per-extent service terms in extent order, the
        pages of the whole request, and the end offset of its last
        extent.  Templates are prepared at ``base`` 0 (exact for every
        base, see the module docstring); transient lists at their own
        base.
        """
        ppt = self._pages_per_track
        settle = self._settle_s
        per_page = self._per_page_s
        seek_seconds = self.seek_seconds
        offset, pages = extents[0]
        end = offset + pages
        head = (base + end) / ppt
        seeks: list[float] = []
        terms: list[float] = []
        for offset, n_pages in islice(extents, 1, None):
            start_page = base + offset
            seek = seek_seconds(head, start_page / ppt)
            if seek:
                seeks.append(seek)
            terms.append(seek + settle + n_pages * per_page)
            pages += n_pages
            end = offset + n_pages
            head = (start_page + n_pages) / ppt
        return self.params, seeks, terms, pages, end

    def _service_vector(
        self, extents: Sequence[tuple[int, int]], base: int = 0
    ) -> float:
        """Numpy pricing of one extent group; bit-identical to the loop.

        Element-wise IEEE-754 operations (divide, multiply, sqrt) match
        the scalar path exactly; only the accumulations stay sequential
        Python-float sums to reproduce the loop's rounding order.
        """
        array = np.asarray(extents, dtype=np.float64)
        starts = array[:, 0]
        if base:
            starts = starts + base
        pages = array[:, 1]
        ends = (starts + pages) / self._pages_per_track
        tracks = starts / self._pages_per_track
        previous = np.empty_like(tracks)
        previous[0] = self._head_track
        previous[1:] = ends[:-1]
        distances = np.abs(tracks - previous)
        seeks = self._max_seek_s * np.sqrt(distances / self._total_tracks)
        services = (seeks + self._settle_s) + pages * self._per_page_s
        seek_sum = self.seek_time
        total = 0.0
        for seek, service in zip(seeks.tolist(), services.tolist()):
            seek_sum += seek
            total += service
        self._head_track = float(ends[-1])
        self.seek_time = seek_sum
        self.pages_read += int(pages.sum())
        return total
