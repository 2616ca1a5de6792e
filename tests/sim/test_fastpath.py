"""Fast-path invariants: the optimisations must be behaviour-preserving.

The simulator fast path (ready-deque event loop, inline succeed,
template-based work expansion, vectorised disk pricing, counting-only
buffers for single-query runs) is only valid because of the invariants
tested here: FIFO dispatch order, start-time service pricing, truncated
run accounting, scalar/vector pricing equality, and pairwise-distinct
extent accesses within one star query.
"""

import math
import random

import pytest

import repro.sim.disk as disk_module
from repro.mdhf.spec import Fragmentation
from repro.schema.apb1 import tiny_schema
from repro.sim.buffer import BufferPool
from repro.sim.config import DiskParameters, SimulationParameters
from repro.sim.database import SimulatedDatabase, _Spreader, _spread_counts
from repro.sim.disk import Disk
from repro.sim.engine import Environment
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type


def _tiny_sim(**overrides):
    schema = tiny_schema()
    fragmentation = Fragmentation.parse("time::month", "product::group")
    params = SimulationParameters().with_hardware(
        n_disks=8, n_nodes=2, subqueries_per_node=2
    )
    from dataclasses import replace

    params = replace(params, **overrides) if overrides else params
    return schema, fragmentation, params


def _run_tiny(**overrides):
    schema, fragmentation, params = _tiny_sim(**overrides)
    query = query_type("1STORE").instantiate(schema, random.Random(0))
    simulator = ParallelWarehouseSimulator(schema, fragmentation, params)
    return simulator.run([query])


def _metrics(result):
    q = result.queries[0]
    return {
        "response_time": q.response_time,
        "fact_io_ops": q.fact_io_ops,
        "fact_pages": q.fact_pages,
        "bitmap_io_ops": q.bitmap_io_ops,
        "bitmap_pages": q.bitmap_pages,
        "buffer_hits": result.buffer_hits,
        "buffer_misses": result.buffer_misses,
        "event_count": result.event_count,
        "disk_busy": result.disk_busy,
        "disk_seek": result.disk_seek,
        "cpu_busy": result.cpu_busy,
    }


class TestDispatchOrder:
    def test_zero_delay_cascade_is_fifo(self):
        """Callbacks scheduled at one instant run in scheduling order,
        regardless of whether they travel through heap, deque or the
        inline path."""
        env = Environment()
        log = []

        def chain(tag, n):
            for i in range(n):
                yield env.timeout(0.0)
                log.append((tag, i))

        env.process(chain("a", 3))
        env.process(chain("b", 3))
        env.run()
        # Processes interleave strictly: a0, b0, a1, b1, ...
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                       ("a", 2), ("b", 2)]

    def test_same_time_heap_entries_precede_later_zero_delay(self):
        """A timeout already scheduled at time t runs before callbacks
        that an earlier t-event schedules with zero delay."""
        env = Environment()
        log = []
        first = env.timeout(1.0)
        env.timeout(1.0).wait(lambda _v: log.append("pre-scheduled"))

        def on_first(_value):
            # Scheduled now (at t=1.0): must run AFTER the pre-scheduled
            # timeout that also fires at t=1.0 with an earlier seq.
            env.timeout(0.0).wait(lambda _v: log.append("cascade"))
            log.append("first")

        first.wait(on_first)
        env.run()
        assert log == ["first", "pre-scheduled", "cascade"]

    def test_event_count_matches_logical_events(self):
        """The inline fast path counts exactly like the heap path."""
        env = Environment()

        def body():
            for _ in range(10):
                yield env.timeout(1.0)

        env.process(body())
        env.run()
        # 1 process start + 10 x (timeout fire + resume).
        assert env.event_count == 21

    def test_run_until_reentrancy(self):
        env = Environment()
        log = []

        def body():
            for i in range(4):
                yield env.timeout(1.0)
                log.append(i)

        env.process(body())
        assert env.run(until=2.5) == 2.5
        assert log == [0, 1]
        assert env.now == 2.5
        # Resume exactly where it stopped; nothing lost or duplicated.
        env.run()
        assert log == [0, 1, 2, 3]
        assert env.now == 4.0


class TestStartTimePricing:
    def test_seek_priced_from_head_at_service_start(self):
        """The second request's seek uses the head position after the
        first completes — not the position at submit time."""
        params = DiskParameters()
        env = Environment()
        disk = Disk(env, params, 0)
        far_page = 512 * params.pages_per_track
        disk.read(far_page, 8)       # moves the head far out
        disk.read(0, 8)              # priced only once the first is done
        env.run()
        seek_out = disk.seek_seconds(0.0, far_page / params.pages_per_track)
        seek_back = disk.seek_seconds(
            (far_page + 8) / params.pages_per_track, 0.0
        )
        assert disk.seek_time == pytest.approx(seek_out + seek_back)
        # Submit-time pricing would have priced the second seek as zero.
        assert seek_back > 0

    def test_truncated_run_counts_only_serviced_pages(self):
        env = Environment()
        disk = Disk(env, DiskParameters(), 0)
        disk.read(0, 8)        # services immediately
        disk.read(10_000, 8)   # queued behind the first
        env.run(until=1e-6)    # first service started, second has not
        assert disk.pages_read == 8
        env.run()
        assert disk.pages_read == 16

    def test_busy_time_accrues_on_completion(self):
        env = Environment()
        disk = Disk(env, DiskParameters(), 0)
        disk.read(0, 8)
        env.run(until=1e-6)
        # Still in service: no busy time credited yet.
        assert disk.busy_time == 0.0
        env.run()
        assert disk.busy_time > 0.0

    def test_utilization_asserts_instead_of_clamping(self):
        env = Environment()
        disk = Disk(env, DiskParameters(), 0)
        disk.read(0, 8)
        env.run()
        assert 0.0 < disk.utilization(env.now) <= 1.0
        disk.busy_time = env.now * 2  # corrupt the accounting
        with pytest.raises(AssertionError, match="busy_time"):
            disk.utilization(env.now)

    def test_bad_extents_fail_at_the_call_site(self):
        env = Environment()
        disk = Disk(env, DiskParameters(), 0)
        disk.read(0, 8)  # make the disk busy
        with pytest.raises(ValueError):
            disk.read_extents([(100, 0)])  # fails immediately, not in-event
        env.run()  # the queued-bad-extent never reaches the event loop
        assert disk.pages_read == 8


class TestVectorisedPricing:
    def test_vector_path_matches_scalar_exactly(self, monkeypatch):
        params = DiskParameters()
        extents = [(i * 97 % 5000 * 8, 3 + i % 6) for i in range(64)]
        env_a = Environment()
        scalar = Disk(env_a, params, 0)
        monkeypatch.setattr(disk_module, "VECTOR_MIN_EXTENTS", 10**9)
        scalar.read_extents(list(extents))
        env_a.run()
        monkeypatch.setattr(disk_module, "VECTOR_MIN_EXTENTS", 1)
        env_b = Environment()
        vector = Disk(env_b, params, 0)
        vector.read_extents(list(extents))
        env_b.run()
        assert env_a.now == env_b.now  # bit-identical service time
        assert scalar.seek_time == vector.seek_time
        assert scalar.busy_time == vector.busy_time
        assert scalar.pages_read == vector.pages_read
        assert scalar._head_track == vector._head_track

    def test_vector_threshold_routes_requests(self, monkeypatch):
        monkeypatch.setattr(disk_module, "VECTOR_MIN_EXTENTS", 4)
        env = Environment()
        disk = Disk(env, DiskParameters(), 0)
        calls = []
        original = Disk._service_vector

        def spy(self, extents, base=0):
            calls.append(len(extents))
            return original(self, extents, base)

        monkeypatch.setattr(Disk, "_service_vector", spy)
        disk.read_extents([(0, 8), (100, 8)])          # below threshold
        disk.read_extents([(i * 50, 4) for i in range(6)])  # above
        env.run()
        assert calls == [6]


class TestSpreadCounts:
    @pytest.mark.parametrize("rate", [0.0, 0.4, 1.0, 7.25, 112.5, 3.999999])
    def test_matches_scalar_spreader(self, rate):
        n = 257
        spreader = _Spreader(rate)
        expected = [spreader.next() for _ in range(n)]
        assert _spread_counts(rate, n) == expected


class TestDistinctAccessInvariant:
    """Soundness of the single-query counting-only buffer mode."""

    def _all_keys(self, database, plan):
        fact_keys = []
        bitmap_keys = []
        for work in database.iter_subquery_work(plan):
            for start, pages in work.fact_extents:
                fact_keys.append((work.fact_disk, start))
            for disk, extents in work.bitmap_reads:
                for start, pages in extents:
                    bitmap_keys.append((disk, start))
        return fact_keys, bitmap_keys

    @pytest.mark.parametrize("query_name", ["1STORE", "1MONTH"])
    def test_single_plan_extent_keys_are_distinct(self, query_name):
        schema, fragmentation, params = _tiny_sim()
        database = SimulatedDatabase(schema, fragmentation, params)
        query = query_type(query_name).instantiate(schema, random.Random(0))
        plan = database.plan(query)
        fact_keys, bitmap_keys = self._all_keys(database, plan)
        assert len(fact_keys) == len(set(fact_keys))
        assert len(bitmap_keys) == len(set(bitmap_keys))

    def test_counting_mode_matches_full_lru_for_single_query(self):
        baseline = _run_tiny()
        # Force the full-LRU path by running the same query as a
        # "stream" of one repeated... a 2-query stream disables the
        # counting mode; compare its first query against the 1-query
        # run (fresh buffers make the first query identical).
        schema, fragmentation, params = _tiny_sim()
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        simulator = ParallelWarehouseSimulator(schema, fragmentation, params)
        double = simulator.run([query, query])
        assert double.queries[0].response_time == pytest.approx(
            baseline.queries[0].response_time
        )
        assert (
            double.queries[0].fact_pages == baseline.queries[0].fact_pages
        )
        assert (
            double.queries[0].bitmap_pages
            == baseline.queries[0].bitmap_pages
        )

    def test_coalesce_only_controls_event_count(self):
        """io_coalesce merges disk requests without changing what is
        read; response times stay within the documented 0.5% band.

        The response-time band is a single-user claim (contention
        amplifies request-granularity differences through queueing).
        The event-count claim runs two concurrent streams: every merged
        disk request saves its own completion event, so the merging
        shows in the event tally even while the queries contend for
        the servers.
        """
        from dataclasses import replace

        def build(coalesce):
            schema, _fragmentation, params = _tiny_sim(io_coalesce=coalesce)
            # Coarse fragments with one-page granules give every
            # fragment several extents, so coalescing has requests to
            # merge even on the tiny schema.
            fragmentation = Fragmentation.parse("time::month")
            params = replace(
                params, buffer=replace(params.buffer, prefetch_fact_pages=1)
            )
            query = query_type("1MONTH").instantiate(schema, random.Random(0))
            return ParallelWarehouseSimulator(
                schema, fragmentation, params
            ), query

        sim, query = build(1)
        faithful = sim.run([query])
        sim, query = build(8)
        batched = sim.run([query])
        assert (
            batched.queries[0].fact_pages == faithful.queries[0].fact_pages
        )
        assert (
            batched.queries[0].bitmap_pages
            == faithful.queries[0].bitmap_pages
        )
        assert batched.queries[0].response_time == pytest.approx(
            faithful.queries[0].response_time, rel=5e-3
        )

        sim, query = build(1)
        faithful_mu = sim.run_multi_user([[query], [query]])
        sim, query = build(8)
        batched_mu = sim.run_multi_user([[query], [query]])
        assert batched_mu.event_count < faithful_mu.event_count
        assert batched_mu.total_pages == faithful_mu.total_pages


class TestBufferFastPaths:
    def test_access_matches_lookup_insert_sequence(self):
        rng = random.Random(7)
        reference = BufferPool(40)
        fast = BufferPool(40)
        for _ in range(500):
            disk = rng.randrange(3)
            start = rng.randrange(20) * 4
            pages = rng.choice([2, 4, 6])
            if not reference.lookup(disk, start):
                reference.insert(disk, start, pages)
            fast.access(disk, start, pages)
            assert (reference.hits, reference.misses) == (
                fast.hits, fast.misses
            )
            assert reference.used_pages == fast.used_pages

    def test_access_extents_matches_per_extent_access(self):
        rng = random.Random(11)
        reference = BufferPool(64)
        batched = BufferPool(64)
        for _ in range(200):
            disk = rng.randrange(2)
            base = rng.randrange(4) * 1000
            extents = [
                (rng.randrange(30) * 8, rng.choice([4, 8]))
                for _ in range(rng.randrange(1, 6))
            ]
            expected_to_read = []
            expected_pages = 0
            for start, pages in extents:
                if not reference.access(disk, base + start, pages):
                    expected_to_read.append((start, pages))
                    expected_pages += pages
            to_read, read_pages = batched.access_extents(disk, extents, base)
            assert to_read == expected_to_read
            assert read_pages == expected_pages
            assert (reference.hits, reference.misses) == (
                batched.hits, batched.misses
            )
            assert reference.used_pages == batched.used_pages

    def test_count_only_counts_without_tracking(self):
        pool = BufferPool(100)
        pool.count_only = True
        to_read, read_pages = pool.access_extents(0, [(0, 8), (8, 8)])
        assert to_read == [(0, 8), (8, 8)]
        assert read_pages == 16
        assert pool.misses == 2 and pool.hits == 0
        assert pool.used_pages == 0  # nothing tracked


class TestSharedDatabase:
    def test_shared_database_across_scheduling_variants(self):
        """One SimulatedDatabase serves run points that differ only in
        scheduling parameters, with identical results."""
        schema, fragmentation, params = _tiny_sim()
        database = SimulatedDatabase(schema, fragmentation, params)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        fresh = ParallelWarehouseSimulator(schema, fragmentation, params)
        shared = ParallelWarehouseSimulator(
            schema, fragmentation, params, database=database
        )
        a = fresh.run([query])
        b = shared.run([query])
        assert _metrics(a) == _metrics(b)
        # A different node count may reuse the same database.
        other = params.with_hardware(n_nodes=1)
        again = ParallelWarehouseSimulator(
            schema, fragmentation, other, database=database
        )
        c = again.run([query])
        assert c.queries[0].fact_pages == a.queries[0].fact_pages

    def test_incompatible_database_rejected(self):
        schema, fragmentation, params = _tiny_sim()
        database = SimulatedDatabase(schema, fragmentation, params)
        other = params.with_hardware(n_disks=4)
        with pytest.raises(ValueError, match="n_disks"):
            ParallelWarehouseSimulator(
                schema, fragmentation, other, database=database
            )


class TestWorkCompatibilityViews:
    def test_absolute_views_match_relative_storage(self):
        schema, fragmentation, params = _tiny_sim()
        database = SimulatedDatabase(schema, fragmentation, params)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        work = next(database.iter_subquery_work(plan))
        extents = work.fact_extents
        assert extents
        assert work.fact_pages == sum(p for _, p in extents)
        assert all(start >= work.fact_start for start, _ in extents)
        flat = [
            pages for batch, _ in work.fact_batches for _, pages in batch
        ]
        assert [p for _, p in extents] == flat
        batch_sums = [total for _, total in work.fact_batches]
        assert sum(batch_sums) == work.fact_pages
        for (disk, absolute), (rel_disk, start, rel, total) in zip(
            work.bitmap_reads, work.bitmap_reads_rel
        ):
            assert disk == rel_disk
            assert absolute == [(start + o, p) for o, p in rel]
            assert total == sum(p for _, p in rel)
