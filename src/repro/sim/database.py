"""Physical database model: from query plans to subquery work units.

Combines the fragment geometry, bitmap elimination and disk allocation
into the simulator's view of the database, and expands a routed
:class:`~repro.mdhf.routing.QueryPlan` into one
:class:`SubqueryWork` per selected fragment — the unit the scheduler
assigns to processing nodes (Section 4.3, step 3).

Expected fractional quantities (hits per fragment, hit granules) are
spread over the fragment sequence with an error-diffusing integeriser so
that totals match the analytic model exactly without RNG noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.allocation.placement import DiskAllocation
from repro.bitmap.catalog import IndexCatalog
from repro.costmodel.estimator import cardenas, distinct_blocks
from repro.mdhf.elimination import eliminate_bitmaps
from repro.mdhf.fragments import geometry_for
from repro.mdhf.query import StarQuery
from repro.mdhf.routing import QueryPlan, plan_query
from repro.mdhf.spec import Fragmentation
from repro.schema.fact import StarSchema
from repro.sim.config import SimulationParameters
from repro.sim.disk import ExtentTemplate


@dataclass(slots=True)
class SubqueryWork:
    """Everything one subquery (one fact fragment or cluster) must do.

    Extents are stored *relative* to a base page: fragments of one run
    share the same extent template (they differ only in where their
    reserved extent starts), so templates — including their grouping
    into ``io_coalesce`` disk-request batches and the page sums per
    batch — are built once and shared by every subquery, instead of
    materialising per-fragment absolute extent lists.

    Bitmap reads are stored structure-of-arrays: every bitmap fragment
    of one subquery shares the same relative extent template and page
    count, so only the per-bitmap ``(disk, base page)`` pairs vary —
    keeping them in two parallel lists avoids materialising one tuple
    per bitmap read (millions under fine fragmentations).  The
    :attr:`bitmap_reads_rel` / :attr:`bitmap_reads` /
    :attr:`fact_extents` properties provide the tuple views.
    """

    fragment_id: int
    fact_disk: int
    #: Base page of the fact extents; extents are offsets against it.
    fact_start: int
    #: Disk-request batches: (relative extents, pages in batch) per
    #: ``io_coalesce`` group, in fragment order.
    fact_batches: list[tuple[list[tuple[int, int]], int]]
    fact_pages: int
    #: Disks of the bitmap fragments to read, in bitmap-index order.
    bitmap_disks: list[int]
    #: Base pages of the bitmap fragments, parallel to ``bitmap_disks``.
    bitmap_starts: list[int]
    #: Relative extent template shared by every bitmap read.
    bitmap_extents: list[tuple[int, int]]
    #: Pages of one bitmap read (the template's page sum).
    bitmap_pages_per_read: int
    bitmap_pages: int
    #: Rows this subquery extracts and aggregates.
    relevant_rows: int
    #: Fact fragments covered (> 1 under Section 6.3 clustering).
    fragment_count: int = 1

    @property
    def fact_extents(self) -> list[tuple[int, int]]:
        """Absolute (start page, pages) extents of the fact reads."""
        base = self.fact_start
        return [
            (base + offset, pages)
            for batch, _pages in self.fact_batches
            for offset, pages in batch
        ]

    @property
    def bitmap_reads_rel(self) -> list[tuple[int, int, list[tuple[int, int]], int]]:
        """Tuple view: one (disk, base page, relative extents, total
        pages) entry per bitmap fragment to read."""
        extents = self.bitmap_extents
        pages = self.bitmap_pages_per_read
        return [
            (disk, start, extents, pages)
            for disk, start in zip(self.bitmap_disks, self.bitmap_starts)
        ]

    @property
    def bitmap_reads(self) -> list[tuple[int, list[tuple[int, int]]]]:
        """Absolute (disk, extents) view of the bitmap reads."""
        return [
            (disk, [(start + offset, pages) for offset, pages in extents])
            for disk, start, extents, _pages in self.bitmap_reads_rel
        ]


def batch_extents(
    extents: list[tuple[int, int]], coalesce: int
) -> list[tuple[list[tuple[int, int]], int]]:
    """Group an extent list into ``io_coalesce`` disk-request batches.

    Each batch is an :class:`~repro.sim.disk.ExtentTemplate`, so the
    disk prepares its pricing tail once however many requests share it.
    """
    batches = []
    for index in range(0, len(extents), coalesce):
        batch = ExtentTemplate(extents[index : index + coalesce])
        batches.append((batch, sum(pages for _, pages in batch)))
    return batches


#: Epsilon terms of the spreader's floor guard.  ``rate * count`` is
#: one multiply away from the intended rational target ``k * T / n``,
#: so its error is bounded by ~1 ulp *relative* to the product.  The
#: absolute 1e-9 alone stops compensating once the product exceeds
#: ~4.5e6 (its ulp outgrows the epsilon) and running totals silently
#: drop below the requested total; the relative term (a few ulps wide)
#: keeps the guard effective at any magnitude without promoting any
#: legitimately fractional target.
_SPREAD_EPS_ABS = 1e-9
_SPREAD_EPS_REL = 2.0 ** -50


class _Spreader:
    """Integerise a constant per-item rate without drift.

    Emits integers whose running sum tracks ``rate * items_emitted``
    (Bresenham-style), so 112.5 hits/fragment alternates 112/113.
    The running sum after ``k`` items is exactly the floor-guarded
    target of ``rate * k`` (telescoping), so totals match the analytic
    model for any rate — including rates of the form ``total / n``
    whose float products land an ulp under the integer total.
    """

    def __init__(self, rate: float):
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self._rate = rate
        self._emitted = 0
        self._count = 0

    def next(self) -> int:
        self._count += 1
        product = self._rate * self._count
        target = math.floor(
            product + (product * _SPREAD_EPS_REL + _SPREAD_EPS_ABS)
        )
        value = target - self._emitted
        self._emitted = target
        return value


def _spread_count_array(rate: float, n: int) -> np.ndarray:
    """The first ``n`` values of ``_Spreader(rate)`` as an int64 array.

    Element operations (multiply, epsilon guard, floor) are the same
    IEEE-754 operations the scalar spreader performs, so the integer
    sequence is identical.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    products = rate * np.arange(1, n + 1, dtype=np.float64)
    targets = np.floor(
        products + (products * _SPREAD_EPS_REL + _SPREAD_EPS_ABS)
    ).astype(np.int64)
    return np.diff(targets, prepend=0)


def _spread_counts(rate: float, n: int) -> list[int]:
    """The first ``n`` values of ``_Spreader(rate)``, vectorised."""
    return _spread_count_array(rate, n).tolist()


class SimulatedDatabase:
    """The allocated star schema as seen by the simulator."""

    def __init__(
        self,
        schema: StarSchema,
        fragmentation: Fragmentation,
        params: SimulationParameters,
        catalog: IndexCatalog | None = None,
        staggered: bool = True,
    ):
        self.schema = schema
        self.fragmentation = fragmentation
        self.params = params
        self.catalog = catalog if catalog is not None else IndexCatalog(schema)
        self.geometry = geometry_for(schema, fragmentation)
        self.elimination = eliminate_bitmaps(self.catalog, fragmentation)
        self._tuples_per_page = schema.tuples_per_page(params.buffer.page_size)
        self._tuples_per_fragment = schema.fact_count / self.geometry.fragment_count

        if params.data_skew > 0 and params.cluster_factor > 1:
            raise ValueError(
                "data_skew and cluster_factor cannot be combined (yet)"
            )
        self._skew_tuples = (
            self._skewed_fragment_tuples() if params.data_skew > 0 else None
        )
        fact_override = bitmap_override = None
        if self._skew_tuples is not None:
            largest = int(self._skew_tuples.max())
            fact_override = math.ceil(largest / self._tuples_per_page)
            bitmap_override = max(
                1, math.ceil(largest / 8 / params.buffer.page_size)
            )
        self.allocation = DiskAllocation(
            geometry=self.geometry,
            n_disks=params.hardware.n_disks,
            kept_bitmaps=self.elimination.total_kept,
            page_size=params.buffer.page_size,
            staggered=staggered,
            scheme=params.allocation_scheme,
            cluster_factor=params.cluster_factor,
            fact_fragment_pages=fact_override,
            bitmap_fragment_pages=bitmap_override,
        )

    # -- planning -----------------------------------------------------------

    def plan(self, query: StarQuery) -> QueryPlan:
        return plan_query(query, self.fragmentation, self.schema, self.catalog)

    def describe(self) -> str:
        """One-line identity for cache warm-up / shard progress logs."""
        skew = (
            f" skew={self.params.data_skew}" if self.params.data_skew else ""
        )
        cluster = (
            f" cluster={self.params.cluster_factor}"
            if self.params.cluster_factor > 1
            else ""
        )
        return (
            f"{self.fragmentation} d={self.params.hardware.n_disks} "
            f"({self.geometry.fragment_count:,} fragments{skew}{cluster})"
        )

    # -- geometry helpers ------------------------------------------------------

    @property
    def fact_pages_per_fragment(self) -> int:
        return self.allocation.fact_pages_per_fragment

    def _bitmap_granule(self) -> int:
        buffer = self.params.buffer
        if not buffer.adaptive_bitmap_prefetch:
            return buffer.prefetch_bitmap_pages
        raw = self._tuples_per_fragment / 8 / buffer.page_size
        return max(1, min(buffer.prefetch_bitmap_pages, math.ceil(raw)))

    # -- work expansion ---------------------------------------------------------

    def iter_subquery_work(self, plan: QueryPlan) -> Iterator[SubqueryWork]:
        """Lazily expand a plan into per-fragment subquery work units.

        Yields in fragment-allocation order, matching the paper's task
        list ("sorted in the order in which the fragments were allocated
        to disks, so that consecutive subqueries can be expected to
        access different disks").  With ``cluster_factor > 1`` the unit
        becomes a cluster of consecutive fragments (Section 6.3).
        """
        if self.params.cluster_factor > 1:
            yield from self._iter_clustered_work(plan)
            return
        if self._skew_tuples is not None:
            yield from self._iter_skewed_work(plan)
            return
        buffer = self.params.buffer
        prefetch = buffer.prefetch_fact_pages
        pages_per_fragment = self.fact_pages_per_fragment
        granules_per_fragment = math.ceil(pages_per_fragment / prefetch)

        fragment_ids = plan.fragment_id_array(self.geometry)
        n_selected = fragment_ids.size
        if not n_selected:
            return
        relevants = _spread_counts(plan.hits_per_fragment, n_selected)
        if plan.all_rows_relevant:
            counts = None
        else:
            hit_pages = distinct_blocks(
                round(self._tuples_per_fragment),
                self._tuples_per_page,
                plan.hits_per_fragment,
            )
            hit_granules = min(
                float(granules_per_fragment),
                cardenas(granules_per_fragment, hit_pages),
            )
            counts = _spread_counts(hit_granules, n_selected)

        # All fragments share the fragment geometry, so extent lists are
        # fragment-relative *templates* shared across subqueries; the
        # handful of distinct hit-granule counts each get one template,
        # pre-grouped into io_coalesce disk-request batches.
        coalesce = self.params.io_coalesce
        full_extents = self._sequential_extents(0, pages_per_fragment, prefetch)
        full_batches = batch_extents(full_extents, coalesce)
        spread_batches: dict[
            int, tuple[list[tuple[list[tuple[int, int]], int]], int]
        ] = {}

        n_bitmaps = plan.bitmaps_per_fragment
        allocation = self.allocation
        fact_disks, fact_starts = allocation.fact_locations(fragment_ids)
        bitmap_pages_per_fragment = allocation.bitmap_pages_per_fragment
        bitmap_granule = self._bitmap_granule()
        bitmap_template = ExtentTemplate(
            self._sequential_extents(
                0, bitmap_pages_per_fragment, bitmap_granule
            )
        )
        bitmap_pages_total = n_bitmaps * bitmap_pages_per_fragment
        if n_bitmaps:
            located = [
                allocation.bitmap_locations(index, fragment_ids)
                for index in range(n_bitmaps)
            ]
            # Transpose to one (disks, starts) row per fragment, so the
            # work units borrow ready-made rows instead of building one
            # tuple per bitmap read.
            bitmap_disk_rows = np.stack(
                [disks for disks, _starts in located], axis=1
            ).tolist()
            bitmap_start_rows = np.stack(
                [starts for _disks, starts in located], axis=1
            ).tolist()

        fragment_id_list = fragment_ids.tolist()
        fact_disk_list = fact_disks.tolist()
        fact_start_list = fact_starts.tolist()
        empty: list = []
        for i, fragment_id in enumerate(fragment_id_list):
            if counts is None:
                batches = full_batches
                fact_pages = pages_per_fragment
            else:
                count = counts[i]
                cached = spread_batches.get(count)
                if cached is None:
                    template = self._spread_extents(
                        0,
                        pages_per_fragment,
                        prefetch,
                        granules_per_fragment,
                        count,
                    )
                    cached = (
                        batch_extents(template, coalesce),
                        sum(pages for _, pages in template),
                    )
                    spread_batches[count] = cached
                batches, fact_pages = cached

            yield SubqueryWork(
                fragment_id=fragment_id,
                fact_disk=fact_disk_list[i],
                fact_start=fact_start_list[i],
                fact_batches=batches,
                fact_pages=fact_pages,
                bitmap_disks=bitmap_disk_rows[i] if n_bitmaps else empty,
                bitmap_starts=bitmap_start_rows[i] if n_bitmaps else empty,
                bitmap_extents=bitmap_template,
                bitmap_pages_per_read=bitmap_pages_per_fragment,
                bitmap_pages=bitmap_pages_total,
                relevant_rows=relevants[i],
            )

    #: Refuse to materialise per-fragment skew arrays beyond this size.
    _SKEW_FRAGMENT_LIMIT = 5_000_000

    def _skewed_fragment_tuples(self):
        """Zipf-distributed tuples per fragment (deterministic in seed).

        Rank ``r`` gets weight ``1 / r^theta``; ranks are randomly
        permuted over fragment ids so the skew does not correlate with
        the allocation order.  Totals are normalised to the schema's
        fact count.
        """
        import numpy as np

        n = self.geometry.fragment_count
        if n > self._SKEW_FRAGMENT_LIMIT:
            raise ValueError(
                f"data_skew unsupported beyond {self._SKEW_FRAGMENT_LIMIT:,} "
                f"fragments (got {n:,})"
            )
        theta = self.params.data_skew
        rng = np.random.default_rng(self.params.seed)
        ranks = rng.permutation(n) + 1
        weights = ranks.astype(np.float64) ** -theta
        weights *= self.schema.fact_count / weights.sum()
        tuples = np.floor(weights).astype(np.int64)
        # Distribute the rounding remainder over the largest fragments.
        deficit = self.schema.fact_count - int(tuples.sum())
        if deficit > 0:
            order = np.argsort(weights - tuples)[::-1]
            tuples[order[:deficit]] += 1
        return tuples

    def _skewed_template(
        self, tuples: int, plan: QueryPlan
    ) -> tuple[
        list[tuple[list[tuple[int, int]], int]],
        int,
        int,
        list[tuple[int, int]],
        int,
    ]:
        """Fragment-population-keyed work template for the skewed path.

        Everything one skewed subquery does — fact batches, page totals,
        relevant rows, bitmap extents — depends only on the fragment's
        tuple count (given the plan), not on where the fragment lives.
        Extents are base-relative, so fragments with equal populations
        share one template exactly like the uniform path's fragments
        share theirs.  Returns ``(fact_batches, fact_pages, relevant,
        bitmap_extents, bitmap_pages_per_fragment)``.
        """
        buffer = self.params.buffer
        prefetch = buffer.prefetch_fact_pages
        pages = math.ceil(tuples / self._tuples_per_page)
        granules = math.ceil(pages / prefetch) if pages else 0

        if plan.all_rows_relevant:
            relevant = tuples
            extents = self._sequential_extents(0, pages, prefetch)
        else:
            relevant = round(
                plan.hits_per_fragment * tuples / self._tuples_per_fragment
            )
            hit_pages = (
                cardenas(pages, relevant) if pages and relevant else 0.0
            )
            hit_granules = (
                round(min(float(granules), cardenas(granules, hit_pages)))
                if granules and hit_pages
                else 0
            )
            extents = self._spread_extents(
                0, pages, prefetch, granules, hit_granules
            )

        extents_b: list[tuple[int, int]] = []
        fragment_bitmap_pages = 0
        if plan.bitmaps_per_fragment and tuples:
            raw_pages = tuples / 8 / buffer.page_size
            fragment_bitmap_pages = max(1, math.ceil(raw_pages))
            granule = buffer.prefetch_bitmap_pages
            if buffer.adaptive_bitmap_prefetch:
                granule = max(1, min(granule, math.ceil(raw_pages)))
            extents_b = ExtentTemplate(
                self._sequential_extents(0, fragment_bitmap_pages, granule)
            )

        return (
            batch_extents(extents, self.params.io_coalesce),
            sum(p for _, p in extents),
            relevant,
            extents_b,
            fragment_bitmap_pages,
        )

    def _iter_skewed_work(self, plan: QueryPlan) -> Iterator[SubqueryWork]:
        """Per-fragment expansion with skewed fragment populations.

        Hits scale with each fragment's population (uniformity *within*
        fragments is kept); I/O geometry follows each fragment's actual
        page count inside its uniformly reserved extent.  Placements are
        computed with the vectorised allocation lookups and the
        per-fragment work comes from population-keyed shared templates
        (:meth:`_skewed_template`), mirroring the uniform fast path.
        """
        assert self._skew_tuples is not None
        n_bitmaps = plan.bitmaps_per_fragment

        ids = plan.fragment_id_array(self.geometry)
        if not ids.size:
            return
        allocation = self.allocation
        fact_disks, fact_starts = allocation.fact_locations(ids)
        id_list = ids.tolist()
        fact_disk_list = fact_disks.tolist()
        fact_start_list = fact_starts.tolist()
        if n_bitmaps:
            located = [
                allocation.bitmap_locations(index, ids)
                for index in range(n_bitmaps)
            ]
            bitmap_disk_rows = np.stack(
                [disks for disks, _starts in located], axis=1
            ).tolist()
            bitmap_start_rows = np.stack(
                [starts for _disks, starts in located], axis=1
            ).tolist()
        tuple_counts = self._skew_tuples[ids].tolist()

        empty: list = []
        templates: dict[int, tuple] = {}
        for i, fragment_id in enumerate(id_list):
            tuples = tuple_counts[i]
            template = templates.get(tuples)
            if template is None:
                template = self._skewed_template(tuples, plan)
                templates[tuples] = template
            (
                fact_batches,
                fact_pages,
                relevant,
                extents_b,
                fragment_bitmap_pages,
            ) = template

            has_bitmaps = fragment_bitmap_pages > 0
            yield SubqueryWork(
                fragment_id=fragment_id,
                fact_disk=fact_disk_list[i],
                fact_start=fact_start_list[i],
                fact_batches=fact_batches,
                fact_pages=fact_pages,
                bitmap_disks=bitmap_disk_rows[i] if has_bitmaps else empty,
                bitmap_starts=bitmap_start_rows[i] if has_bitmaps else empty,
                bitmap_extents=extents_b,
                bitmap_pages_per_read=fragment_bitmap_pages,
                bitmap_pages=fragment_bitmap_pages * n_bitmaps,
                relevant_rows=relevant,
            )

    def _iter_clustered_work(self, plan: QueryPlan) -> Iterator[SubqueryWork]:
        """Cluster-granular expansion: one subquery per fragment cluster.

        The bitmap fragments of the cluster's fragments are packed into
        consecutive pages and read as one extent — the paper's remedy
        for bitmap fragments below one page (Section 6.3).

        A cluster's fact extents are its fragments' extent templates
        (identical to the uniform path's), each shifted by the
        fragment's start page relative to the cluster's first fact page
        (``fact_start``).  That layout — the relative starts and the
        template of every fragment — fixes the cluster's batch list, so
        clusters with equal layouts share one list of shared
        :class:`~repro.sim.disk.ExtentTemplate` batches (interned by
        content within one call), like the uniform path's fragments
        share theirs.  Cluster bitmap placements come from the
        allocation's vectorised
        :meth:`~repro.allocation.placement.DiskAllocation.bitmap_cluster_locations`.
        """
        buffer = self.params.buffer
        prefetch = buffer.prefetch_fact_pages
        pages_per_fragment = self.fact_pages_per_fragment
        granules_per_fragment = math.ceil(pages_per_fragment / prefetch)

        ids = plan.fragment_id_array(self.geometry)
        n_selected = ids.size
        if not n_selected:
            return
        relevants = _spread_count_array(plan.hits_per_fragment, n_selected)
        counts = None
        if not plan.all_rows_relevant:
            hit_pages = distinct_blocks(
                round(self._tuples_per_fragment),
                self._tuples_per_page,
                plan.hits_per_fragment,
            )
            hit_granules = min(
                float(granules_per_fragment),
                cardenas(granules_per_fragment, hit_pages),
            )
            counts = _spread_count_array(hit_granules, n_selected)

        allocation = self.allocation
        fact_disks, fact_starts = allocation.fact_locations(ids)
        units = ids // self.params.cluster_factor
        # Group boundaries: consecutive runs of equal allocation unit.
        boundaries = np.flatnonzero(np.diff(units)) + 1
        group_starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        group_ends = np.concatenate(
            (boundaries, np.asarray([n_selected], dtype=np.int64))
        )
        sizes = group_ends - group_starts

        # Per-fragment extent templates: the full-scan template, or one
        # spread template per distinct hit-granule count (the spreader
        # emits at most two distinct counts per plan).
        if counts is None:
            templates = [
                self._sequential_extents(0, pages_per_fragment, prefetch)
            ]
            template_of = np.zeros(n_selected, dtype=np.int64)
        else:
            values = np.unique(counts)
            templates = [
                self._spread_extents(
                    0,
                    pages_per_fragment,
                    prefetch,
                    granules_per_fragment,
                    count,
                )
                for count in values.tolist()
            ]
            template_of = np.searchsorted(values, counts)

        # One (relative start, template) row per fragment; a cluster's
        # rows are its layout, and their bytes its interning key.
        cluster_bases = fact_starts[group_starts]
        layout_rows = np.stack(
            (fact_starts - np.repeat(cluster_bases, sizes), template_of),
            axis=1,
        )

        relevant_cumsum = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(relevants))
        )
        group_relevant = (
            relevant_cumsum[group_ends] - relevant_cumsum[group_starts]
        ).tolist()
        n_bitmaps = plan.bitmaps_per_fragment
        if n_bitmaps:
            bitmap_disk_rows, bitmap_start_rows, cluster_pages = (
                allocation.bitmap_cluster_locations(
                    units[group_starts], sizes, n_bitmaps
                )
            )
        else:
            cluster_pages = [0] * group_starts.size

        coalesce = self.params.io_coalesce
        layouts: dict[bytes, tuple[list, int]] = {}
        shared_batches: dict[tuple, tuple[ExtentTemplate, int]] = {}
        empty: list = []
        for g, (lo, hi, fragment_id, fact_disk, base, selected) in enumerate(
            zip(
                group_starts.tolist(),
                group_ends.tolist(),
                ids[group_starts].tolist(),
                fact_disks[group_starts].tolist(),
                cluster_bases.tolist(),
                sizes.tolist(),
            )
        ):
            rows = layout_rows[lo:hi]
            key = rows.tobytes()
            layout = layouts.get(key)
            if layout is None:
                extents = [
                    (start + offset, pages)
                    for start, index in rows.tolist()
                    for offset, pages in templates[index]
                ]
                fact_batches = [
                    shared_batches.setdefault(tuple(batch), (batch, total))
                    for batch, total in batch_extents(extents, coalesce)
                ]
                layout = layouts[key] = (
                    fact_batches,
                    sum(pages for _start, pages in extents),
                )
            fact_batches, fact_pages = layout
            pages = cluster_pages[g]
            yield SubqueryWork(
                fragment_id=fragment_id,
                fact_disk=fact_disk,
                fact_start=base,
                fact_batches=fact_batches,
                fact_pages=fact_pages,
                bitmap_disks=bitmap_disk_rows[g] if n_bitmaps else empty,
                bitmap_starts=bitmap_start_rows[g] if n_bitmaps else empty,
                bitmap_extents=[(0, pages)] if n_bitmaps else empty,
                bitmap_pages_per_read=pages,
                bitmap_pages=pages * n_bitmaps,
                relevant_rows=group_relevant[g],
                fragment_count=selected,
            )

    @staticmethod
    def _sequential_extents(
        start_page: int, total_pages: int, granule: int
    ) -> list[tuple[int, int]]:
        """Whole-fragment scan: back-to-back prefetch granules."""
        extents = []
        offset = 0
        while offset < total_pages:
            pages = min(granule, total_pages - offset)
            extents.append((start_page + offset, pages))
            offset += pages
        return extents

    @staticmethod
    def _spread_extents(
        start_page: int,
        total_pages: int,
        granule: int,
        granules_total: int,
        granules_hit: int,
    ) -> list[tuple[int, int]]:
        """Hit granules evenly spread across the fragment extent."""
        if granules_hit <= 0:
            return []
        granules_hit = min(granules_hit, granules_total)
        extents = []
        for i in range(granules_hit):
            index = (i * granules_total) // granules_hit
            offset = index * granule
            pages = min(granule, total_pages - offset)
            extents.append((start_page + offset, pages))
        return extents
