"""Clustered/skewed fast-path invariants (behaviour-preserving claims).

The work expansion hands out shared base-relative extent templates
(equal unit layouts share one batch list), bitmap
reads are stored structure-of-arrays and probed in bulk
(``BufferPool.probe_many``), and the counting-only shortcut extends to
multi-fragment clustered single-query runs.  Each optimisation is only
valid because of the invariants pinned here: probe parity with the
scalar loop, packed-key disk validation, drift-free spreader totals,
pairwise-distinct extent accesses under clustering/skew, end-to-end
metric equality with the un-shortcut buffer path, and equality of the
uniform, clustered and skewed expansions with a per-fragment reference.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.costmodel.estimator import cardenas, distinct_blocks
from repro.mdhf.spec import Fragmentation
from repro.schema.apb1 import tiny_schema
from repro.sim.buffer import BufferManager, BufferPool, _MAX_DISK
from repro.sim.config import SimulationParameters
from repro.sim.database import (
    SimulatedDatabase,
    _Spreader,
    _spread_count_array,
)
from repro.sim.disk import ExtentTemplate
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type


def _tiny_params(**overrides):
    params = SimulationParameters().with_hardware(
        n_disks=8, n_nodes=2, subqueries_per_node=2
    )
    return replace(params, **overrides) if overrides else params


def _tiny_database(**overrides):
    schema = tiny_schema()
    fragmentation = Fragmentation.parse("time::month", "product::group")
    params = _tiny_params(**overrides)
    return schema, fragmentation, SimulatedDatabase(
        schema, fragmentation, params
    )


# ---------------------------------------------------------------------
# probe_many
# ---------------------------------------------------------------------


class TestProbeMany:
    def _random_reads(self, rng):
        extents = [
            (rng.randrange(8) * 8, rng.choice([2, 4]))
            for _ in range(rng.randrange(1, 4))
        ]
        total = sum(p for _, p in extents)
        disks = [rng.randrange(3) for _ in range(rng.randrange(1, 5))]
        bases = [rng.randrange(5) * 500 for _ in disks]
        return disks, bases, extents, total

    def test_matches_scalar_access_extents_loop(self):
        rng = random.Random(23)
        reference = BufferPool(96)
        bulk = BufferPool(96)
        for _ in range(300):
            disks, bases, extents, total = self._random_reads(rng)
            expected = [
                reference.access_extents(disk, extents, base, total)
                for disk, base in zip(disks, bases)
            ]
            probed = bulk.probe_many(disks, bases, extents, total)
            assert probed == expected
            assert (reference.hits, reference.misses) == (
                bulk.hits, bulk.misses
            )
            assert reference.used_pages == bulk.used_pages

    def test_count_only_matches_fresh_stateful_pool(self):
        # Distinct groups can only miss: a counting-only pool returns
        # the pairs a fresh stateful pool returns and counts the same
        # misses, without tracking residency.
        extents = ExtentTemplate([(0, 2), (8, 2)])
        disks, bases = [1, 2, 3], [100, 200, 300]
        counting = BufferPool(100)
        counting.count_only = True
        stateful = BufferPool(100)
        probed = counting.probe_many(disks, bases, extents, 4)
        assert probed == stateful.probe_many(disks, bases, extents, 4)
        # The shared template itself, so prepared pricing tails apply.
        assert all(to_read is extents for to_read, _pages in probed)
        assert (counting.hits, counting.misses) == (
            stateful.hits, stateful.misses
        ) == (0, 6)
        assert counting.used_pages == 0

    def test_lru_state_equivalence_with_interleaved_hits(self):
        # Re-probing the same groups hits, refreshing LRU order exactly
        # like sequential access_extents calls.
        reference = BufferPool(1000)
        bulk = BufferPool(1000)
        extents = [(0, 4), (4, 4)]
        probed = None
        for _ in range(2):
            for disk, base in [(0, 0), (1, 64)]:
                reference.access_extents(disk, extents, base, 8)
            probed = bulk.probe_many([0, 1], [0, 64], extents, 8)
        assert probed == [([], 0), ([], 0)]
        assert (reference.hits, reference.misses) == (bulk.hits, bulk.misses)


# ---------------------------------------------------------------------
# Packed-key disk validation (regression: disk id was unvalidated)
# ---------------------------------------------------------------------


class TestPackedKeyDiskValidation:
    def test_negative_disk_rejected(self):
        pool = BufferPool(64)
        with pytest.raises(ValueError, match="disk id -1"):
            pool.lookup(-1, 0)
        with pytest.raises(ValueError, match="alias"):
            pool.insert(-1, 0, 4)
        with pytest.raises(ValueError, match="alias"):
            pool.access(-1, 0, 4)

    def test_over_wide_disk_rejected(self):
        pool = BufferPool(64)
        with pytest.raises(ValueError, match=f"disk id {_MAX_DISK}"):
            pool.lookup(_MAX_DISK, 0)

    def test_access_extents_validates_disk(self):
        pool = BufferPool(64)
        with pytest.raises(ValueError, match="alias"):
            pool.access_extents(-1, [(0, 4)], 0, 4)
        with pytest.raises(ValueError, match="alias"):
            pool.access_extents(_MAX_DISK, [(0, 4)], 0, 4)

    def test_widest_valid_disk_does_not_alias(self):
        # Regression: disk << 44 with an unvalidated id could collide
        # with another disk's pages; the widest valid id must not.
        pool = BufferPool(64)
        pool.insert(_MAX_DISK - 1, 0, 4)
        assert not pool.lookup(_MAX_DISK - 2, 0)
        assert pool.lookup(_MAX_DISK - 1, 0)


# ---------------------------------------------------------------------
# Spreader totals (regression: absolute epsilon drifted at large rates)
# ---------------------------------------------------------------------


class TestSpreaderExactTotals:
    #: (total, n) pairs where ``floor(total/n * n + 1e-9)`` — the old
    #: absolute-epsilon guard — loses one unit: the float product lands
    #: an ulp below the integer total and 1e-9 is smaller than the ulp.
    DRIFT_CASES = [
        (7_432_717_247, 402_329),
        (33_216_976_259, 492_119),
        (243_430_210_941, 797_913),
        (817_328_170_240, 165_894),
    ]

    @pytest.mark.parametrize("total,n", DRIFT_CASES)
    def test_old_guard_would_drift(self, total, n):
        # Meta-check so the fixture stays meaningful: these cases do
        # expose the old formula.
        assert math.floor((total / n) * n + 1e-9) == total - 1

    @pytest.mark.parametrize("total,n", DRIFT_CASES)
    def test_scalar_spreader_sums_to_total(self, total, n):
        # Summing n draws must recover the exact requested total; the
        # running sum telescopes to the n-th floor-guarded target, so
        # jump the counter instead of iterating 800k times.
        spreader = _Spreader(total / n)
        spreader._count = n - 1
        spreader.next()
        assert spreader._emitted == total

    @pytest.mark.parametrize("total,n", DRIFT_CASES)
    def test_vectorised_counts_sum_to_total(self, total, n):
        assert sum(_spread_count_array(total / n, n).tolist()) == total

    @pytest.mark.parametrize(
        "rate", [0.0, 0.4, 1.0, 7.25, 112.5, 3.999999, 18_474.0000001]
    )
    def test_vector_matches_scalar_sequence(self, rate):
        n = 513
        spreader = _Spreader(rate)
        assert _spread_count_array(rate, n).tolist() == [
            spreader.next() for _ in range(n)
        ]

    def test_moderate_rates_unchanged_by_relative_epsilon(self):
        # The relative term must not promote legitimately fractional
        # targets: classic small-rate sequences stay identical.
        assert _spread_count_array(112.5, 10).tolist() == [112, 113] * 5
        assert sum(_spread_count_array(0.37, 1000).tolist()) == 370


# ---------------------------------------------------------------------
# Clustered / skewed expansion invariants
# ---------------------------------------------------------------------


def _collect_keys(database, plan):
    fact_keys, bitmap_keys = [], []
    for work in database.iter_subquery_work(plan):
        for start, _pages in work.fact_extents:
            fact_keys.append((work.fact_disk, start))
        for disk, extents in work.bitmap_reads:
            for start, _pages in extents:
                bitmap_keys.append((disk, start))
    return fact_keys, bitmap_keys


class TestClusteredDistinctAccesses:
    """The counting-only shortcut is *provably* hit-free under
    clustering: every (disk, start page) a clustered single query
    touches — including the packed per-cluster bitmap extents — is
    pairwise distinct."""

    @pytest.mark.parametrize("cluster_factor", [2, 4, 8])
    def test_clustered_extent_sets_are_disjoint(self, cluster_factor):
        schema, _f, database = _tiny_database(cluster_factor=cluster_factor)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        fact_keys, bitmap_keys = _collect_keys(database, plan)
        assert fact_keys and bitmap_keys
        assert len(set(fact_keys)) == len(fact_keys)
        assert len(set(bitmap_keys)) == len(bitmap_keys)

    def test_skewed_extent_sets_are_disjoint(self):
        schema, _f, database = _tiny_database(data_skew=0.75)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        fact_keys, bitmap_keys = _collect_keys(database, plan)
        assert fact_keys and bitmap_keys
        assert len(set(fact_keys)) == len(fact_keys)
        assert len(set(bitmap_keys)) == len(bitmap_keys)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cluster_factor": 4},
            {"data_skew": 0.75},
            {},
            {"parallel_bitmap_io": False},
            {"max_concurrent_subqueries": 1},
        ],
        ids=[
            "clustered", "skewed", "uniform", "sequential_bitmap_io",
            "one_subquery_at_a_time",
        ],
    )
    def test_count_only_metrics_equal_full_lru(self, overrides, monkeypatch):
        """End to end: a single-query run with the counting-only
        shortcut produces metrics identical to the full LRU buffer path
        (no hit is possible, so the shortcut is exact).  One subquery at
        a time leaves the engine idle around every read.
        """
        schema = tiny_schema()
        fragmentation = Fragmentation.parse("time::month", "product::group")
        params = _tiny_params(**overrides)
        query = query_type("1STORE").instantiate(schema, random.Random(0))

        fast = ParallelWarehouseSimulator(schema, fragmentation, params)
        with_shortcut = fast.run([query])

        monkeypatch.setattr(
            BufferManager, "assume_distinct_accesses", lambda self: None
        )
        slow = ParallelWarehouseSimulator(schema, fragmentation, params)
        without_shortcut = slow.run([query])

        def signature(result):
            q = result.queries[0]
            return (
                q.response_time, q.subqueries, q.fact_io_ops, q.fact_pages,
                q.bitmap_io_ops, q.bitmap_pages, result.buffer_hits,
                result.buffer_misses, result.event_count, result.elapsed,
                result.disk_busy, result.cpu_busy,
            )

        assert signature(with_shortcut) == signature(without_shortcut)
        assert with_shortcut.buffer_hits == 0


class TestSequentialBitmapProbeTiming:
    def test_multiuser_sequential_bitmap_io_matches_reference(self):
        """With ``parallel_bitmap_io=False`` and concurrent streams, a
        stateful LRU pool must be probed only after the previous bitmap
        read completed — other queries mutate the pool in between.

        Regression: an earlier bulk-probe draft probed every group
        upfront, silently shifting multi-user metrics.  The expected
        values are captured from the pre-fast-path implementation.
        """
        schema = tiny_schema()
        frag = Fragmentation.parse("time::month", "product::group")
        params = replace(
            SimulationParameters().with_hardware(
                n_disks=6, n_nodes=2, subqueries_per_node=2
            ),
            parallel_bitmap_io=False,
        )
        sim = ParallelWarehouseSimulator(schema, frag, params)
        template = query_type("1STORE")
        streams = [
            [
                template.instantiate(schema, random.Random(17 * s + q))
                for q in range(2)
            ]
            for s in range(3)
        ]
        result = sim.run_multi_user(streams)
        assert [
            round(q.response_time, 9) for q in result.queries
        ] == [
            0.701285825, 0.704367665, 0.705683585,
            0.25560576, 0.323684461, 0.329077546,
        ]
        assert (result.buffer_hits, result.buffer_misses) == (2362, 1094)
        assert result.event_count == 34894
        assert sum(q.bitmap_io_ops for q in result.queries) == 547


class TestQueuedVsIdleDiskPricing:
    def test_queued_and_idle_single_extent_pricing_agree(self):
        """Queued requests are priced when the previous one completes
        (``Disk._complete``), idle ones at submit; both must price
        identically, head state included."""
        from repro.sim.config import DiskParameters
        from repro.sim.disk import Disk
        from repro.sim.engine import Environment

        reads = [(0, 4), (5000, 2), (123, 8), (40000, 1)]

        def run(queued: bool):
            env = Environment()
            disk = Disk(env, DiskParameters(), 0)
            if queued:
                # Submit everything at once: all but the first request
                # are priced from _complete.
                for start, pages in reads:
                    disk.read_validated(
                        [(start, pages)], pages, 0, lambda _pages: None
                    )
                env.run()
            else:
                # One at a time: every request is priced by _service on
                # an idle disk.
                for start, pages in reads:
                    disk.read_validated(
                        [(start, pages)], pages, 0, lambda _pages: None
                    )
                    env.run()
            return disk.busy_time, disk.seek_time, disk.pages_read

        assert run(queued=True) == run(queued=False)


class TestWorkStructureOfArrays:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"cluster_factor": 4}, {"data_skew": 0.75}],
        ids=["uniform", "clustered", "skewed"],
    )
    def test_soa_fields_consistent_with_tuple_views(self, overrides):
        schema, _f, database = _tiny_database(**overrides)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        works = list(database.iter_subquery_work(plan))
        assert works
        for work in works:
            assert len(work.bitmap_disks) == len(work.bitmap_starts)
            reads = work.bitmap_reads_rel
            assert [d for d, _s, _e, _p in reads] == work.bitmap_disks
            assert [s for _d, s, _e, _p in reads] == work.bitmap_starts
            for _d, _s, extents, pages in reads:
                assert extents is work.bitmap_extents
                assert pages == work.bitmap_pages_per_read
                assert pages == sum(p for _o, p in extents)
            assert work.bitmap_pages == (
                work.bitmap_pages_per_read * len(work.bitmap_disks)
            )
            assert work.fact_pages == sum(
                pages for _batch, pages in work.fact_batches
            )

    def test_clustered_covers_every_selected_fragment(self):
        schema, _f, database = _tiny_database(cluster_factor=4)
        query = query_type("1STORE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        works = list(database.iter_subquery_work(plan))
        assert sum(w.fragment_count for w in works) == plan.fragment_count
        assert sum(w.relevant_rows for w in works) == sum(
            _spread_count_array(
                plan.hits_per_fragment, plan.fragment_count
            ).tolist()
        )


# ---------------------------------------------------------------------
# Work expansion against a per-fragment reference: uniform, clustered
# and skewed databases, with base-relative, shared batch layouts
# ---------------------------------------------------------------------


def _reference_units(database, plan):
    """Per-fragment expansion built the plain way, one dict per unit.

    Every selected fragment is placed with the scalar
    ``DiskAllocation.fact_location`` / ``bitmap_location`` (or
    ``bitmap_cluster_placement`` under clustering) and integerised with
    the scalar :class:`_Spreader` (uniform populations) or per-fragment
    ``round`` (skewed populations).  Under clustering, fragments of one
    allocation unit concatenate into one unit at its first fact page.
    ``fact_extents`` are absolute; ``layout_key`` names the fragments'
    shape, which the expander may share one batch list for.
    """
    params = database.params
    buffer = params.buffer
    allocation = database.allocation
    prefetch = buffer.prefetch_fact_pages
    tuples_per_page = database._tuples_per_page
    skew = database._skew_tuples
    n_bitmaps = plan.bitmaps_per_fragment
    ids = plan.fragment_ids(database.geometry).tolist()

    fragment_pages = database.fact_pages_per_fragment
    granules = math.ceil(fragment_pages / prefetch)
    relevant_spreader = _Spreader(plan.hits_per_fragment)
    hit_spreader = None
    if not plan.all_rows_relevant:
        hit_pages = distinct_blocks(
            round(database._tuples_per_fragment),
            tuples_per_page,
            plan.hits_per_fragment,
        )
        hit_spreader = _Spreader(
            min(float(granules), cardenas(granules, hit_pages))
        )
    bitmap_pages = allocation.bitmap_pages_per_fragment
    bitmap_granule = buffer.prefetch_bitmap_pages
    if buffer.adaptive_bitmap_prefetch:
        raw = database._tuples_per_fragment / 8 / buffer.page_size
        bitmap_granule = max(1, min(bitmap_granule, math.ceil(raw)))

    units = []
    for fragment_id in ids:
        disk, start = allocation.fact_location(fragment_id)
        population = None
        if skew is None:
            relevant = relevant_spreader.next()
            if hit_spreader is None:
                extents = database._sequential_extents(
                    start, fragment_pages, prefetch
                )
            else:
                extents = database._spread_extents(
                    start, fragment_pages, prefetch, granules,
                    hit_spreader.next(),
                )
            read_pages = bitmap_pages
            read_extents = database._sequential_extents(
                0, bitmap_pages, bitmap_granule
            )
        else:
            population = int(skew[fragment_id])
            pages = math.ceil(population / tuples_per_page)
            own_granules = math.ceil(pages / prefetch)
            if plan.all_rows_relevant:
                relevant = population
                extents = database._sequential_extents(start, pages, prefetch)
            else:
                relevant = round(
                    plan.hits_per_fragment * population
                    / database._tuples_per_fragment
                )
                hits = 0
                if pages and relevant:
                    hit_pages = cardenas(pages, relevant)
                    hits = round(
                        min(float(own_granules), cardenas(own_granules, hit_pages))
                    )
                extents = database._spread_extents(
                    start, pages, prefetch, own_granules, hits
                )
            read_pages, read_extents = 0, []
            if n_bitmaps and population:
                raw = population / 8 / buffer.page_size
                read_pages = max(1, math.ceil(raw))
                granule = buffer.prefetch_bitmap_pages
                if buffer.adaptive_bitmap_prefetch:
                    granule = max(1, min(granule, math.ceil(raw)))
                read_extents = database._sequential_extents(
                    0, read_pages, granule
                )
        unit = allocation.unit_of(fragment_id)
        if not units or unit != units[-1]["unit"] or params.cluster_factor == 1:
            units.append(dict(
                unit=unit, fragment_id=fragment_id, fact_disk=disk,
                fact_start=start, fact_extents=[], relevant_rows=0,
                fragment_count=0, population=population,
                bitmap_extents=read_extents, bitmap_pages_per_read=read_pages,
            ))
        current = units[-1]
        current["fact_extents"].extend(extents)
        current["relevant_rows"] += relevant
        current["fragment_count"] += 1

    for current in units:
        reads = []
        if params.cluster_factor > 1:
            current["bitmap_pages_per_read"] = 0
            current["bitmap_extents"] = []
            for index in range(n_bitmaps):
                placement = allocation.bitmap_cluster_placement(
                    index, current["unit"], current["fragment_count"]
                )
                reads.append((placement.disk, placement.start_page))
                current["bitmap_pages_per_read"] = placement.pages
                current["bitmap_extents"] = [(0, placement.pages)]
        elif current["bitmap_pages_per_read"]:
            reads = [
                allocation.bitmap_location(index, current["fragment_id"])
                for index in range(n_bitmaps)
            ]
        current["bitmap_disks"] = [disk for disk, _start in reads]
        current["bitmap_starts"] = [start for _disk, start in reads]
        current["bitmap_pages"] = current["bitmap_pages_per_read"] * n_bitmaps
        first = current["fact_start"]
        current["layout_key"] = (
            tuple((s - first, p) for s, p in current["fact_extents"]),
            current["population"],
        )
    return units


def _assert_matches_reference(database, plan, expect_sharing=True):
    """Every :class:`SubqueryWork` field equals the per-fragment
    reference, and equal layouts share one batch-list object."""
    coalesce = database.params.io_coalesce
    works = list(database.iter_subquery_work(plan))
    units = _reference_units(database, plan)
    assert works and len(works) == len(units)

    by_layout: dict[tuple, list] = {}
    for work, unit in zip(works, units):
        extents = unit["fact_extents"]
        for name in (
            "fragment_id", "fact_disk", "fact_start", "relevant_rows",
            "fragment_count", "bitmap_disks", "bitmap_starts",
            "bitmap_extents", "bitmap_pages_per_read", "bitmap_pages",
        ):
            assert getattr(work, name) == unit[name], name
        assert work.fact_extents == extents
        assert work.fact_pages == sum(p for _s, p in extents)
        assert [pages for _batch, pages in work.fact_batches] == [
            sum(p for _s, p in extents[i : i + coalesce])
            for i in range(0, len(extents), coalesce)
        ]
        by_layout.setdefault(unit["layout_key"], []).append(work.fact_batches)

    # Equal layouts share one batch-list object; that sharing is what
    # keeps the expansion's memory flat.  (Skewed fragments share by
    # population, so the key carries it.)
    if expect_sharing:
        assert any(len(lists) > 1 for lists in by_layout.values())
    for lists in by_layout.values():
        assert all(batches is lists[0] for batches in lists)
    assert len({id(lists[0]) for lists in by_layout.values()}) == len(
        by_layout
    )


def _reference_database(
    fragmentation=("time::month", "product::group"),
    density=1.0,
    buffer=None,
    **overrides,
):
    """Fragments spanning several granules (400-byte tuples, 2-page
    granules) and batches of 3 extents, so batches straddle fragment
    boundaries and clusters differ in layout."""
    schema = tiny_schema(density=density, tuple_size_bytes=400)
    base = _tiny_params()
    params = replace(
        base,
        io_coalesce=3,
        buffer=replace(base.buffer, prefetch_fact_pages=2, **(buffer or {})),
        **overrides,
    )
    database = SimulatedDatabase(
        schema, Fragmentation.parse(*fragmentation), params
    )
    return schema, database


class TestClusteredExpansionReference:
    @pytest.mark.parametrize("cluster_factor", [1, 2, 8, 32])
    @pytest.mark.parametrize("query_name", ["1STORE", "1QUARTER"])
    def test_matches_per_fragment_reference(self, cluster_factor, query_name):
        schema, database = _reference_database(cluster_factor=cluster_factor)
        query = query_type(query_name).instantiate(schema, random.Random(0))
        plan = database.plan(query)
        # One selective query with bitmaps, one full scan without.
        assert plan.all_rows_relevant == (query_name == "1QUARTER")
        assert bool(plan.bitmaps_per_fragment) == (query_name == "1STORE")
        _assert_matches_reference(database, plan)

    @pytest.mark.parametrize("cluster_factor", [1, 2])
    def test_two_bitmaps_per_fragment(self, cluster_factor):
        schema, database = _reference_database(
            ("customer::retailer", "channel::channel"),
            cluster_factor=cluster_factor,
        )
        query = query_type("1MONTH1GROUP").instantiate(
            schema, random.Random(0)
        )
        plan = database.plan(query)
        assert plan.bitmaps_per_fragment == 2
        _assert_matches_reference(database, plan)

    @pytest.mark.parametrize("staggered", [True, False])
    @pytest.mark.parametrize("scheme", ["round_robin", "gap"])
    def test_unclustered_bitmap_rows_are_int_lists(self, staggered, scheme):
        """Unclustered units get their bitmap rows from the block's
        placement arrays one row at a time; each must still be a plain
        ``list`` of Python ``int`` at every bitmap's scalar placement."""
        schema, database = _reference_database(
            ("customer::retailer", "channel::channel"),
            allocation_scheme=scheme,
        )
        database = SimulatedDatabase(
            schema, database.fragmentation, database.params,
            staggered=staggered,
        )
        query = query_type("1MONTH1GROUP").instantiate(
            schema, random.Random(0)
        )
        plan = database.plan(query)
        n_bitmaps = plan.bitmaps_per_fragment
        assert n_bitmaps == 2
        allocation = database.allocation
        works = list(database.iter_subquery_work(plan))
        assert len(works) == plan.fragment_count > 1
        for work in works:
            for row in (work.bitmap_disks, work.bitmap_starts):
                assert type(row) is list
                assert all(type(value) is int for value in row)
            assert list(zip(work.bitmap_disks, work.bitmap_starts)) == [
                allocation.bitmap_location(k, work.fragment_id)
                for k in range(n_bitmaps)
            ]


class TestMultiPageBitmapReference:
    """512-byte pages and a one-page bitmap granule: every bitmap
    fragment spans two pages, read as two extents (one packed extent
    per cluster)."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"cluster_factor": 2}, {"data_skew": 0.5}],
        ids=["uniform", "clustered", "skewed"],
    )
    def test_matches_per_fragment_reference(self, overrides):
        schema, database = _reference_database(
            ("customer::retailer", "channel::channel"),
            buffer={"page_size": 512, "prefetch_bitmap_pages": 1},
            **overrides,
        )
        query = query_type("1MONTH1GROUP").instantiate(
            schema, random.Random(0)
        )
        plan = database.plan(query)
        assert plan.bitmaps_per_fragment == 2
        works = list(database.iter_subquery_work(plan))
        assert max(len(work.bitmap_extents) for work in works) == (
            1 if "cluster_factor" in overrides else 2
        )
        # Eight fragments of distinct skewed populations share nothing.
        _assert_matches_reference(
            database, plan, expect_sharing="data_skew" not in overrides
        )


class TestSkewedExpansionReference:
    """Skewed populations: each fragment's own page count, hit rows and
    bitmap pages inside its reserved slot.  At a quarter of the tiny
    schema's density, the fine fragmentation leaves most fragments
    empty at skew 1.0."""

    FINE = ("customer::store", "time::month", "product::group")

    @pytest.mark.parametrize("skew", [0.5, 1.0])
    @pytest.mark.parametrize(
        "fragmentation,density",
        [(("time::month", "product::group"), 1.0), (FINE, 0.25)],
        ids=["month_group", "store_month_group"],
    )
    @pytest.mark.parametrize("query_name", ["1CODE", "1QUARTER"])
    def test_matches_per_fragment_reference(
        self, skew, fragmentation, density, query_name
    ):
        schema, database = _reference_database(
            fragmentation, density, data_skew=skew
        )
        query = query_type(query_name).instantiate(schema, random.Random(0))
        plan = database.plan(query)
        assert bool(plan.bitmaps_per_fragment) == (query_name == "1CODE")
        _assert_matches_reference(database, plan)

    def test_empty_fragments_read_nothing(self):
        schema, database = _reference_database(
            self.FINE, 0.25, data_skew=1.0
        )
        query = query_type("1CODE").instantiate(schema, random.Random(0))
        plan = database.plan(query)
        ids = plan.fragment_ids(database.geometry)
        works = list(database.iter_subquery_work(plan))
        empty = [
            work for work, population in zip(works, database._skew_tuples[ids])
            if not population
        ]
        assert empty and plan.bitmaps_per_fragment
        for work in empty:
            assert work.fact_batches == [] and work.fact_pages == 0
            assert work.bitmap_disks == [] and work.bitmap_pages == 0
            assert work.relevant_rows == 0
