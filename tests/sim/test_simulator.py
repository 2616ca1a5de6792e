"""End-to-end simulator behaviour on the tiny schema (fast) plus one
full-scale spot check against the paper."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.mdhf.query import Predicate, StarQuery
from repro.mdhf.spec import Fragmentation
from repro.sim.config import SimulationParameters
from repro.sim.engine import Process
from repro.sim.scheduler import QueryExecutor
from repro.sim.simulator import ParallelWarehouseSimulator


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
    """A finished subquery is freed by refcounting: its generator must
    not reference itself once it parks, and it runs without a
    ``Process`` of its own.  Only the queries' coordinator processes
    may be left for the cyclic collector."""

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
            assert len(processes) <= len(queries)
        finally:
            gc.set_debug(old_debug)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()


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
