"""Prepared-tail disk pricing against the per-extent pricing loop.

``Disk._service`` prices a multi-extent request as the seek from the
head to its first extent plus a tail prepared once per shared
:class:`~repro.sim.disk.ExtentTemplate`.  The oracle below is the
per-extent loop that priced every extent on its own before tails
existed, copied verbatim.  Prepared and transient pricing must match it
bit for bit: service times (and so completion instants), ``seek_time``,
``pages_read``, the head position and ``busy_time``, over generated
templates, bases, head positions and request sequences — idle and
queued, single and fused — on one disk.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.scenarios.spec import RunSpec
from repro.sim.config import DiskParameters
from repro.sim.disk import Disk, ExtentTemplate
from repro.sim.engine import Environment

from tests.properties.strategies import QUICK, STANDARD


class _OracleDisk:
    """The per-extent pricing loop, as it was before prepared tails."""

    def __init__(self, params: DiskParameters, head: float):
        self.head = head
        self.total_tracks = params.capacity_pages / params.pages_per_track
        self.max_seek = params.avg_seek_ms / 1000.0 / (8.0 / 15.0)
        self.ppt = params.pages_per_track
        self.settle = params.settle_controller_ms / 1000.0
        self.per_page = params.per_page_ms / 1000.0
        self.seek_time = 0.0
        self.pages_read = 0

    def service(self, extents, base):
        ppt = self.ppt
        head = self.head
        seek_sum = self.seek_time
        pages_sum = 0
        total = 0.0
        for offset, n_pages in extents:
            start_page = base + offset
            track = start_page / ppt
            distance = track - head
            if distance < 0.0:
                distance = -distance
            if distance == 0:
                seek = 0.0
            else:
                seek = self.max_seek * math.sqrt(distance / self.total_tracks)
            seek_sum += seek
            total += (seek + self.settle + n_pages * self.per_page)
            pages_sum += n_pages
            head = (start_page + n_pages) / ppt
        self.head = head
        self.seek_time = seek_sum
        self.pages_read += pages_sum
        return total


@st.composite
def templates(draw):
    """1-40 extents whose gaps run forward, backward or not at all."""
    n = draw(st.integers(1, 40))
    extents = []
    position = draw(st.integers(0, 4096))
    for _ in range(n):
        pages = draw(st.integers(1, 64))
        extents.append((position, pages))
        gap = draw(
            st.one_of(
                st.just(0),
                st.integers(1, 100_000),
                st.integers(-100_000, -1),
            )
        )
        position += pages + gap
    return extents


@st.composite
def workloads(draw):
    """A disk, a head position, a template pool and request bursts."""
    pages_per_track = draw(st.sampled_from([64, 64, 64, 32, 48, 1]))
    params = replace(DiskParameters(), pages_per_track=pages_per_track)
    head = draw(
        st.one_of(
            st.integers(0, params.capacity_pages).map(
                lambda page: page / pages_per_track
            ),
            st.floats(0.0, params.capacity_pages / pages_per_track),
        )
    )
    pool = draw(st.lists(templates(), min_size=1, max_size=4))
    request = st.tuples(
        st.integers(0, len(pool) - 1),
        st.integers(0, 2_000_000),
        st.booleans(),  # True: the shared template, False: a fresh copy
    )
    bursts = draw(
        st.lists(
            st.tuples(
                st.lists(request, min_size=1, max_size=6),
                st.booleans(),  # submit the burst as one fused batch
            ),
            min_size=1,
            max_size=8,
        )
    )
    return params, head, pool, bursts


#: Between bursts the disk idles: longer than any generated request.
IDLE_GAP = 1000.0


def _run_disk(params, head, pool, bursts):
    env = Environment()
    disk = Disk(env, params, 0)
    disk._head_track = head
    shared = [ExtentTemplate(extents) for extents in pool]
    completions: list[float] = []

    def completed(_pages):
        completions.append(env.now)

    def submit_bursts():
        for requests, fused in bursts:
            yield env.timeout(IDLE_GAP)
            reads = []
            for index, base, use_template in requests:
                extents = shared[index] if use_template else list(pool[index])
                low = min(offset for offset, _pages in extents)
                pages = sum(p for _offset, p in extents)
                reads.append((extents, pages, base - min(low, 0)))
            if fused and len(reads) > 1:
                disk.read_batch(reads, completed)
            else:
                for extents, pages, base in reads:
                    disk.read_validated(extents, pages, base, completed)

    env.process(submit_bursts())
    env.run()
    return disk, completions


def _run_oracle(params, head, pool, bursts):
    oracle = _OracleDisk(params, head)
    completions: list[float] = []
    busy_time = 0.0
    now = 0.0
    for requests, fused in bursts:
        now = now + IDLE_GAP
        t = now
        for index, base, _use_template in requests:
            extents = pool[index]
            low = min(offset for offset, _pages in extents)
            duration = oracle.service(extents, base - min(low, 0))
            busy_time += duration
            t = t + duration
            if not (fused and len(requests) > 1):
                completions.append(t)
        if fused and len(requests) > 1:
            completions.append(t)
    return oracle, busy_time, completions


@STANDARD
@given(workloads())
def test_prepared_pricing_matches_per_extent_loop(workload):
    params, head, pool, bursts = workload
    disk, completions = _run_disk(params, head, pool, bursts)
    oracle, busy_time, expected = _run_oracle(params, head, pool, bursts)
    assert completions == expected
    assert disk.seek_time == oracle.seek_time
    assert disk.pages_read == oracle.pages_read
    assert disk._head_track == oracle.head
    assert disk.busy_time == busy_time


@QUICK
@given(templates(), st.integers(0, 500_000), st.integers(0, 500_000))
def test_template_tail_follows_the_pricing_disks_parameters(
    extents, base, head_page
):
    """One template priced on a default disk, then on a degraded disk
    sharing it: each disk prices with its own terms."""
    default = DiskParameters()
    degraded = RunSpec(
        run_id="degraded",
        query="1STORE",
        fragmentation=("time::month",),
        disk_degradation=2.0,
    ).sim_params().disk
    assert degraded.per_page_ms == 2.0 * default.per_page_ms
    template = ExtentTemplate(extents)
    base -= min(0, min(offset for offset, _pages in extents))
    head = head_page / default.pages_per_track
    for params in (default, degraded, default):
        disk = Disk(Environment(), params, 0)
        disk._head_track = head
        oracle = _OracleDisk(params, head)
        assert disk._service(template, base) == oracle.service(extents, base)
        assert disk.seek_time == oracle.seek_time
        assert disk._head_track == oracle.head
        if len(extents) > 1:
            assert template.tail[0] is params
