"""End-to-end simulator behaviour on the tiny schema (fast) plus one
full-scale spot check against the paper."""

import gc
import random
import weakref
from dataclasses import replace

import pytest

from repro.mdhf.query import Predicate, StarQuery
from repro.mdhf.spec import Fragmentation
from repro.sim.config import SimulationParameters
from repro.sim.engine import Process
from repro.sim.scheduler import QueryExecutor
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type


def tiny_params(**kwargs):
    defaults = dict(n_disks=8, n_nodes=4, subqueries_per_node=2)
    defaults.update(kwargs)
    return SimulationParameters().with_hardware(**defaults)


@pytest.fixture
def tiny_frag():
    return Fragmentation.parse("time::month", "product::group")


@pytest.fixture
def one_store_tiny():
    return StarQuery([Predicate.parse("customer::store", 7)], name="1STORE")


@pytest.fixture
def one_month_tiny():
    return StarQuery([Predicate.parse("time::month", 3)], name="1MONTH")


class TestBasicExecution:
    def test_runs_and_reports(self, tiny, tiny_frag, one_month_tiny):
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        result = sim.run([one_month_tiny])
        (metrics,) = result.queries
        assert metrics.response_time > 0
        assert metrics.subqueries == 24  # 24 groups of one month
        assert metrics.fact_pages > 0
        assert metrics.bitmap_pages == 0  # IOC1: no bitmap access

    def test_subqueries_match_plan(self, tiny, tiny_frag, one_store_tiny):
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        result = sim.run([one_store_tiny])
        n_fragments = tiny_frag.fragment_count(tiny)
        assert result.queries[0].subqueries == n_fragments

    def test_deterministic_under_seed(self, tiny, tiny_frag, one_store_tiny):
        a = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params()).run(
            [one_store_tiny]
        )
        b = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params()).run(
            [one_store_tiny]
        )
        assert a.queries[0].response_time == b.queries[0].response_time
        assert a.queries[0].fact_pages == b.queries[0].fact_pages

    def test_empty_stream_rejected(self, tiny, tiny_frag):
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        with pytest.raises(ValueError):
            sim.run([])

    def test_run_repeated(self, tiny, tiny_frag, one_month_tiny):
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        result = sim.run_repeated(one_month_tiny, 3)
        assert result.query_count == 3

    @pytest.mark.parametrize("repetitions, shown", [
        (True, "True"), (2.0, r"2\.0"), ("3", "'3'"),
    ], ids=["bool", "float", "str"])
    def test_run_repeated_rejects_non_integer_counts(
        self, tiny, tiny_frag, one_month_tiny, repetitions, shown
    ):
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        with pytest.raises(
            ValueError, match=f"repetitions must be an integer, got {shown}"
        ):
            sim.run_repeated(one_month_tiny, repetitions)


class TestSchedulingPolicies:
    def test_global_parallelism_cap_slows_query(self, tiny, tiny_frag, one_month_tiny):
        from dataclasses import replace

        free = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params()).run(
            [one_month_tiny]
        )
        capped_params = replace(tiny_params(), max_concurrent_subqueries=1)
        capped = ParallelWarehouseSimulator(tiny, tiny_frag, capped_params).run(
            [one_month_tiny]
        )
        assert capped.queries[0].response_time > free.queries[0].response_time

    def test_more_nodes_help_cpu_bound_query(self, tiny, tiny_frag, one_month_tiny):
        slow = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(n_nodes=1)
        ).run([one_month_tiny])
        fast = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(n_nodes=4)
        ).run([one_month_tiny])
        assert fast.queries[0].response_time < slow.queries[0].response_time

    def test_coordinator_reserves_one_slot(self, tiny, tiny_frag, one_month_tiny):
        # p=1, t=2: only one subquery slot remains next to coordination.
        from dataclasses import replace

        params = tiny_params(n_nodes=1, subqueries_per_node=2)
        result = ParallelWarehouseSimulator(tiny, tiny_frag, params).run(
            [one_month_tiny]
        )
        # Equivalent to a global cap of 1 on a single node.
        capped = replace(params, max_concurrent_subqueries=1)
        reference = ParallelWarehouseSimulator(tiny, tiny_frag, capped).run(
            [one_month_tiny]
        )
        assert result.queries[0].response_time == pytest.approx(
            reference.queries[0].response_time, rel=0.05
        )

    def test_parallel_bitmap_io_not_slower(self, tiny, tiny_frag, one_store_tiny):
        from dataclasses import replace

        parallel = ParallelWarehouseSimulator(
            tiny, tiny_frag, replace(tiny_params(), parallel_bitmap_io=True)
        ).run([one_store_tiny])
        serial = ParallelWarehouseSimulator(
            tiny, tiny_frag, replace(tiny_params(), parallel_bitmap_io=False)
        ).run([one_store_tiny])
        assert (
            parallel.queries[0].response_time
            <= serial.queries[0].response_time
        )

    def test_io_coalescing_close_to_faithful(self, tiny, one_store_tiny):
        from dataclasses import replace

        # A coarse fragmentation gives multi-extent fragments (11 pages
        # each), so coalescing can actually merge requests.
        coarse = Fragmentation.parse("time::quarter")
        faithful = ParallelWarehouseSimulator(
            tiny, coarse, replace(tiny_params(), io_coalesce=1)
        ).run([one_store_tiny])
        coalesced = ParallelWarehouseSimulator(
            tiny, coarse, replace(tiny_params(), io_coalesce=8)
        ).run([one_store_tiny])
        assert coalesced.queries[0].response_time == pytest.approx(
            faithful.queries[0].response_time, rel=0.15
        )
        assert coalesced.event_count < faithful.event_count


class TestBufferManager:
    def test_repeat_query_hits_buffer(self, tiny, tiny_frag, one_store_tiny):
        # Single node: the second identical query finds all fragments
        # cached (the tiny database fits in the Table 4 pool sizes).
        params = tiny_params(n_nodes=1, subqueries_per_node=4)
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, params)
        result = sim.run([one_store_tiny, one_store_tiny])
        first, second = result.queries
        assert result.buffer_hits > 0
        assert second.fact_pages == 0  # everything resident
        assert second.bitmap_pages == 0
        assert second.response_time < first.response_time


class TestNoCyclicGarbage:
    """A finished run is freed by refcounting: a subquery's generator
    must not reference itself once it parks, and it runs without a
    ``Process`` of its own; a finished ``Process`` (a coordinator or a
    session) drops its bound resume, so none is left for the cyclic
    collector."""

    @pytest.mark.parametrize("parallel_bitmap_io", [True, False])
    def test_subqueries_leave_no_cyclic_garbage(
        self, tiny, tiny_frag, one_store_tiny, one_month_tiny,
        parallel_bitmap_io, monkeypatch,
    ):
        # A suspended generator caught in a cycle is closed by its
        # finalizer during collection, which breaks the cycle, so it
        # never shows in gc.garbage: weak references catch it instead.
        bodies = []
        make_body = QueryExecutor._subquery_body

        def traced_body(executor, node_id, work):
            body = make_body(executor, node_id, work)
            bodies.append(weakref.ref(body))
            return body

        monkeypatch.setattr(QueryExecutor, "_subquery_body", traced_body)
        params = replace(tiny_params(), parallel_bitmap_io=parallel_bitmap_io)
        queries = [one_store_tiny, one_month_tiny, one_store_tiny]
        was_enabled = gc.isenabled()
        old_debug = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            sim = ParallelWarehouseSimulator(tiny, tiny_frag, params)
            result = sim.run(queries)
            assert result.query_count == len(queries)
            del sim, result
            assert bodies
            assert [ref for ref in bodies if ref() is not None] == []
            gc.collect()
            leftover = [
                obj for obj in gc.garbage
                if type(obj).__name__ == "generator"
                and obj.gi_code.co_name == "_subquery_body"
            ]
            processes = [obj for obj in gc.garbage if type(obj) is Process]
            assert leftover == []
            assert processes == []
        finally:
            gc.set_debug(old_debug)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()


#: A single-user stream with two repeats, so the second sight of each
#: query finds pages left in the LRU pools by the first.
STREAM = [
    ("1STORE", 1), ("1MONTH1GROUP", 0), ("1STORE", 1), ("1MONTH1GROUP", 0),
    ("1QUARTER", 2),
]

#: (fragmentation, parallel_bitmap_io) -> (per query (response time,
#: fact pages, bitmap pages, coordinator node), (buffer hits, misses),
#: elapsed, disk busy times, CPU busy times).  Captured from the
#: per-query ``run_until_event`` loop that single-user runs used before
#: they became one session process; the figures must not move.
STREAM_PHYSICS = {
    (("time::month", "product::group"), True): (
        [
            (0.3718462279722167, 288, 288, 3),
            (0.0018907199999999569, 0, 0, 3),
            (0.3637926945397081, 277, 277, 0),
            (0.0018907200000000124, 0, 0, 2),
            (0.03456706294172085, 28, 0, 3),
        ],
        (68, 1158), 0.7739874254536456,
        [0.5873771754567613, 0.5913251180428671, 0.5875066868865518,
         0.5995296082238708, 0.5995279627344197, 0.6037382957853925,
         0.6075219600919501, 0.5791558340073956],
        [0.12217071999999969, 0.0651283199999997, 0.06716655999999971,
         0.13880640000000052],
    ),
    (("time::month", "product::group"), False): (
        [
            (0.3718462279722167, 288, 288, 3),
            (0.0018907199999999569, 0, 0, 3),
            (0.3637926945397081, 277, 277, 0),
            (0.0018907200000000124, 0, 0, 2),
            (0.03456706294172085, 28, 0, 3),
        ],
        (68, 1158), 0.7739874254536456,
        [0.5873771754567613, 0.5913251180428671, 0.5875066868865518,
         0.5995296082238708, 0.5995279627344197, 0.6037382957853925,
         0.6075219600919501, 0.5791558340073956],
        [0.12217071999999969, 0.0651283199999997, 0.06716655999999971,
         0.13880640000000052],
    ),
    (("customer::retailer", "channel::channel"), True): (
        [
            (0.016280576650155906, 12, 2, 3),
            (0.02074406533052677, 36, 14, 3),
            (0.00319959999999999, 0, 0, 0),
            (0.017030611496755034, 6, 2, 2),
            (0.006610959999999992, 0, 0, 3),
        ],
        (45, 27), 0.0638658134774377,
        [0.021044205570600095, 0.017111607197030903, 0.01709664154420525,
         0.017122785330526774, 0.017122785330526774, 0.017122785330526774,
         0.026167636827281838, 0.021122785330526774],
        [0.01390456, 0.009152959999999998, 0.008634559999999998,
         0.011770639999999995],
    ),
    (("customer::retailer", "channel::channel"), False): (
        [
            (0.016280576650155906, 12, 2, 3),
            (0.024163790047450194, 36, 14, 3),
            (0.00319959999999999, 0, 0, 0),
            (0.02104892204363004, 6, 2, 2),
            (0.006610959999999999, 0, 0, 3),
        ],
        (45, 27), 0.07130384874123613,
        [0.021018310546875002, 0.017111607197030903, 0.01709664154420525,
         0.017122785330526774, 0.01709664154420525, 0.01709664154420525,
         0.026141493040960313, 0.02109664154420525],
        [0.01390456, 0.009152959999999998, 0.008634559999999998,
         0.011770639999999995],
    ),
}


class TestMultiQueryStreamPhysics:
    """``run`` with several queries, as ``repro simulate --repeat``
    drives it: no golden covers a stream longer than one query."""

    @pytest.mark.parametrize(
        "fragmentation, parallel_bitmap_io", list(STREAM_PHYSICS),
        ids=[
            "month_group-parallel", "month_group-serial",
            "retailer_channel-parallel", "retailer_channel-serial",
        ],
    )
    def test_stream_physics_pinned(
        self, tiny, fragmentation, parallel_bitmap_io
    ):
        params = replace(tiny_params(), parallel_bitmap_io=parallel_bitmap_io)
        sim = ParallelWarehouseSimulator(
            tiny, Fragmentation.parse(*fragmentation), params
        )
        queries = [
            query_type(name).instantiate(tiny, random.Random(seed))
            for name, seed in STREAM
        ]
        result = sim.run(queries)
        per_query, buffer, elapsed, disk_busy, cpu_busy = STREAM_PHYSICS[
            (fragmentation, parallel_bitmap_io)
        ]
        assert [
            (q.response_time, q.fact_pages, q.bitmap_pages, q.coordinator_node)
            for q in result.queries
        ] == per_query
        assert [q.name for q in result.queries] == [name for name, _ in STREAM]
        assert (result.buffer_hits, result.buffer_misses) == buffer
        assert result.elapsed == elapsed
        assert result.disk_busy == disk_busy
        assert result.cpu_busy == cpu_busy


class TestCrossValidationWithCostModel:
    def test_io_counters_match_analytic_estimate(self, tiny, tiny_frag, one_store_tiny):
        from repro.costmodel import estimate_io
        from repro.costmodel.iocost import IOCostParameters

        params = tiny_params()
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, params)
        result = sim.run([one_store_tiny])
        plan = sim.database.plan(one_store_tiny)
        estimate = estimate_io(plan, tiny, IOCostParameters())
        metrics = result.queries[0]
        assert metrics.bitmap_pages == estimate.bitmap_pages
        assert metrics.fact_pages == pytest.approx(estimate.fact_pages, rel=0.02)


@pytest.mark.slow
class TestFullScaleSpotCheck:
    def test_1month_speedup_shape(self, apb1):
        """Figure 4's shape: 1MONTH is CPU-bound, near-linear in p."""
        frag = Fragmentation.parse("time::month", "product::group")
        query = StarQuery([Predicate.parse("time::month", 5)], name="1MONTH")
        times = {}
        for p in (1, 10):
            params = SimulationParameters().with_hardware(
                n_disks=20, n_nodes=p, subqueries_per_node=4
            )
            sim = ParallelWarehouseSimulator(apb1, frag, params)
            times[p] = sim.run([query]).queries[0].response_time
        # Paper: ~336s at p=1; linear speed-up with p.
        assert 250 < times[1] < 450
        speedup = times[1] / times[10]
        assert 8.0 < speedup <= 11.0
