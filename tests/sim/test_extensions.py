"""Extensions beyond the paper's evaluation: the remedies it sketches
(gap allocation §4.6, fragment clustering §6.3) and its future work
(multi-user mode, data skew — §7)."""

from dataclasses import replace

import pytest

from repro.mdhf.query import Predicate, StarQuery
from repro.mdhf.spec import Fragmentation
from repro.sim.config import SimulationParameters
from repro.sim.database import SimulatedDatabase
from repro.sim.simulator import ParallelWarehouseSimulator


def tiny_params(**kwargs):
    hw = dict(n_disks=8, n_nodes=4, subqueries_per_node=2)
    hw.update({k: v for k, v in kwargs.items() if k in ("n_disks", "n_nodes", "subqueries_per_node")})
    extra = {k: v for k, v in kwargs.items() if k not in hw}
    return replace(SimulationParameters().with_hardware(**hw), **extra)


@pytest.fixture
def tiny_frag():
    return Fragmentation.parse("time::month", "product::group")


class TestGapAllocation:
    def test_stride_queries_spread_over_more_disks(self, apb1):
        frag = Fragmentation.parse("time::month", "product::group")
        query = StarQuery([Predicate.parse("product::code", 33)], name="1CODE")
        disks = {}
        for scheme in ("round_robin", "gap"):
            params = replace(
                SimulationParameters().with_hardware(n_disks=100, n_nodes=20),
                allocation_scheme=scheme,
            )
            db = SimulatedDatabase(apb1, frag, params)
            plan = db.plan(query)
            disks[scheme] = {
                db.allocation.fact_placement(f).disk
                for f in plan.iter_fragment_ids(db.geometry)
            }
        # Plain round robin clusters on d/gcd(480,100) = 5 disks; the
        # gap scheme restores (nearly) full spread.
        assert len(disks["round_robin"]) == 5
        assert len(disks["gap"]) >= 20

    def test_gap_scheme_faster_for_stride_query(self, tiny, tiny_frag):
        # tiny F_MonthGroup: 24 groups; with 8 disks gcd(24, 8) = 8 ->
        # 1CODE lands on a single disk under plain round robin.
        query = StarQuery([Predicate.parse("product::code", 10)], name="1CODE")
        plain = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(allocation_scheme="round_robin")
        ).run([query])
        gapped = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(allocation_scheme="gap")
        ).run([query])
        assert gapped.queries[0].response_time < plain.queries[0].response_time

    def test_gap_preserves_capacity(self, apb1):
        frag = Fragmentation.parse("time::month", "product::group")
        params = replace(
            SimulationParameters().with_hardware(n_disks=100, n_nodes=20),
            allocation_scheme="gap",
        )
        db = SimulatedDatabase(apb1, frag, params)
        # Every fragment still gets a unique (disk, slot): extents of
        # consecutive fragments on the same disk never overlap.
        seen = set()
        for fragment_id in range(0, 1000):
            placement = db.allocation.fact_placement(fragment_id)
            key = (placement.disk, placement.start_page)
            assert key not in seen
            seen.add(key)

    def test_unknown_scheme_rejected(self, apb1, tiny_frag):
        from repro.allocation.placement import DiskAllocation
        from repro.mdhf.fragments import FragmentGeometry

        geometry = FragmentGeometry(apb1, tiny_frag)
        with pytest.raises(ValueError, match="scheme"):
            DiskAllocation(geometry, 10, 4, scheme="zigzag")


class TestFragmentClustering:
    def test_clusters_reduce_subqueries(self, tiny, tiny_frag):
        query = StarQuery([Predicate.parse("customer::store", 7)], name="1STORE")
        plain = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params()
        ).run([query])
        clustered = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(cluster_factor=4)
        ).run([query])
        n_fragments = tiny_frag.fragment_count(tiny)
        assert plain.queries[0].subqueries == n_fragments
        assert clustered.queries[0].subqueries == -(-n_fragments // 4)

    def test_clusters_pack_subpage_bitmap_fragments(self, tiny, tiny_frag):
        # tiny bitmap fragments are far below a page; packing 4 of them
        # still needs only 1 page -> 4x fewer bitmap pages read.
        query = StarQuery([Predicate.parse("customer::store", 7)], name="1STORE")
        plain = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params()
        ).run([query])
        clustered = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(cluster_factor=4)
        ).run([query])
        assert (
            clustered.queries[0].bitmap_pages
            <= plain.queries[0].bitmap_pages / 3
        )

    def test_relevant_rows_preserved(self, tiny, tiny_frag):
        params = tiny_params(cluster_factor=4)
        db = SimulatedDatabase(tiny, tiny_frag, params)
        query = StarQuery([Predicate.parse("customer::store", 7)])
        plan = db.plan(query)
        total = sum(w.relevant_rows for w in db.iter_subquery_work(plan))
        assert total == int(plan.expected_hits)

    def test_partial_cluster_selection(self, tiny, tiny_frag):
        # 1MONTH selects a contiguous run of 24 fragments; cluster
        # factor 16 cuts it into partially filled units.
        params = tiny_params(cluster_factor=16)
        db = SimulatedDatabase(tiny, tiny_frag, params)
        query = StarQuery([Predicate.parse("time::month", 3)])
        plan = db.plan(query)
        work = list(db.iter_subquery_work(plan))
        assert sum(w.fragment_count for w in work) == plan.fragment_count

    def test_cluster_factor_validation(self):
        with pytest.raises(ValueError):
            replace(SimulationParameters(), cluster_factor=0)

    def test_cluster_and_skew_exclusive(self):
        # Rejected when the parameters are built, naming both fields.
        with pytest.raises(
            ValueError, match="data_skew and cluster_factor cannot be combined"
        ):
            tiny_params(cluster_factor=2, data_skew=0.5)


class TestDataSkew:
    def test_skewed_tuples_sum_to_fact_count(self, tiny, tiny_frag):
        params = tiny_params(data_skew=0.8)
        db = SimulatedDatabase(tiny, tiny_frag, params)
        assert int(db._skew_tuples.sum()) == tiny.fact_count

    def test_skew_degrades_response_time(self, tiny, tiny_frag):
        query = StarQuery([Predicate.parse("time::month", 3)], name="1MONTH")
        uniform = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params()
        ).run([query])
        skewed = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(data_skew=1.0)
        ).run([query])
        assert (
            skewed.queries[0].response_time
            > uniform.queries[0].response_time
        )

    def test_skew_deterministic_in_seed(self, tiny, tiny_frag):
        import numpy as np

        a = SimulatedDatabase(tiny, tiny_frag, tiny_params(data_skew=0.7))
        b = SimulatedDatabase(tiny, tiny_frag, tiny_params(data_skew=0.7))
        assert np.array_equal(a._skew_tuples, b._skew_tuples)

    def test_zero_skew_uses_uniform_path(self, tiny, tiny_frag):
        db = SimulatedDatabase(tiny, tiny_frag, tiny_params())
        assert db._skew_tuples is None

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            replace(SimulationParameters(), data_skew=-0.1)

    def test_skewed_bitmap_query_runs(self, tiny, tiny_frag):
        query = StarQuery([Predicate.parse("customer::store", 7)], name="1STORE")
        result = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(data_skew=0.5)
        ).run([query])
        assert result.queries[0].response_time > 0
        assert result.queries[0].bitmap_pages > 0


class TestMultiUser:
    def test_concurrent_streams_raise_throughput(self, tiny, tiny_frag):
        queries = [
            StarQuery([Predicate.parse("time::month", m)], name="1MONTH")
            for m in range(4)
        ]
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        sequential = sim.run(queries)
        concurrent = sim.run_multi_user([[q] for q in queries])
        # Same total work, shorter wall clock, longer individual
        # responses: the classic multi-user trade-off.
        assert concurrent.elapsed < sequential.elapsed
        assert concurrent.avg_response_time >= sequential.avg_response_time
        assert concurrent.query_count == sequential.query_count == 4

    def test_streams_run_back_to_back_internally(self, tiny, tiny_frag):
        query = StarQuery([Predicate.parse("time::month", 0)], name="1MONTH")
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        result = sim.run_multi_user([[query, query]])
        assert result.query_count == 2
        # Single stream = single-user mode: elapsed is the sum of the
        # responses.
        assert result.elapsed == pytest.approx(
            sum(q.response_time for q in result.queries), rel=1e-6
        )

    def test_empty_streams_rejected(self, tiny, tiny_frag):
        sim = ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())
        with pytest.raises(ValueError):
            sim.run_multi_user([])
        with pytest.raises(ValueError):
            sim.run_multi_user([[]])
