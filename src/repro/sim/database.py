"""Physical database model: from query plans to subquery work units.

Combines the fragment geometry, bitmap elimination and disk allocation
into the simulator's view of the database, and expands a routed
:class:`~repro.mdhf.routing.QueryPlan` into one
:class:`SubqueryWork` per selected fragment (or fragment cluster,
Section 6.3) — the unit the scheduler assigns to processing nodes
(Section 4.3, step 3).

Expected fractional quantities (hits per fragment, hit granules) are
spread over the fragment sequence with an error-diffusing integeriser so
that totals match the analytic model exactly without RNG noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterator

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


def _spread_count_array(rate: float, n: int, start: int = 0) -> np.ndarray:
    """Draws ``start + 1`` to ``start + n`` of ``_Spreader(rate)`` as an
    int64 array.

    Element operations (multiply, epsilon guard, floor) are the same
    IEEE-754 operations the scalar spreader performs, and the running
    target at ``start`` is the one the spreader reached there, so the
    integer sequence is identical wherever a block of it starts.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    products = rate * np.arange(start, start + n + 1, dtype=np.float64)
    targets = np.floor(
        products + (products * _SPREAD_EPS_REL + _SPREAD_EPS_ABS)
    ).astype(np.int64)
    return np.diff(targets)


#: Selected fragments per block of
#: :meth:`SimulatedDatabase.iter_subquery_work`: enough that a block's
#: numpy calls cost little next to its units (at 2,048 the cluster32
#: expansion ran slower than the whole-plan one inside a simulation;
#: at 64 the clustered_1store run_rel rose from about 9 to 17), few
#: enough that one block's arrays stay well under a MiB even with a
#: dozen bitmap reads per fragment (a 4,096 x 12 int64 array is
#: 384 KiB).
_EXPAND_BLOCK = 4096


def _expansion_blocks(
    count: int,
    fragment_ids: Callable[[int, int], np.ndarray],
    cluster_factor: int,
) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` position ranges that split ``count`` selected
    fragments into blocks.

    A block holds at most ``max(_EXPAND_BLOCK, cluster_factor)``
    fragments and is cut only between clusters (runs of equal
    ``id // cluster_factor``), so no unit straddles two blocks.
    ``fragment_ids(lo, hi)`` gives the ids at positions ``lo:hi``; a
    cut reads only the ``cluster_factor + 1`` ids around it.
    """
    step = max(_EXPAND_BLOCK, cluster_factor)
    lo = 0
    while lo < count:
        hi = min(lo + step, count)
        if hi < count and cluster_factor > 1:
            # Move the cut back to the start of the cluster holding
            # ``hi``.  A cluster spans at most ``cluster_factor``
            # positions, so the window holds that start, and the cut
            # stays past ``lo``.
            window = (
                fragment_ids(hi - cluster_factor, hi + 1) // cluster_factor
            )
            last_other = int(np.flatnonzero(window != window[-1])[-1])
            hi -= cluster_factor - 1 - last_other
        yield lo, hi
        lo = hi


def database_fields(
    schema: StarSchema,
    fragmentation: Fragmentation,
    params: SimulationParameters,
) -> tuple[tuple[str, object], ...]:
    """The ``(name, value)`` inputs that shape a physical database.

    Run points on which these agree can share one
    :class:`SimulatedDatabase` and differ only in scheduling knobs (node
    count, task limits) or disk timings (degraded disks).  The tuple is
    hashable, a cache key as it stands.  The schema compares by
    identity; the seed counts only under data skew.
    """
    return (
        ("schema", schema),
        ("fragmentation", fragmentation),
        ("n_disks", params.hardware.n_disks),
        ("staggered_allocation", params.staggered_allocation),
        ("allocation_scheme", params.allocation_scheme),
        ("cluster_factor", params.cluster_factor),
        ("data_skew", params.data_skew),
        (
            "seed (skew permutation)",
            params.seed if params.data_skew > 0 else None,
        ),
        ("buffer", params.buffer),
        ("io_coalesce", params.io_coalesce),
    )


class SimulatedDatabase:
    """The allocated star schema as seen by the simulator."""

    def __init__(
        self,
        schema: StarSchema,
        fragmentation: Fragmentation,
        params: SimulationParameters,
        catalog: IndexCatalog | None = None,
    ):
        self.schema = schema
        self.fragmentation = fragmentation
        self.params = params
        self.catalog = catalog if catalog is not None else IndexCatalog(schema)
        self.geometry = geometry_for(schema, fragmentation)
        self.elimination = eliminate_bitmaps(self.catalog, fragmentation)
        self._tuples_per_page = schema.tuples_per_page(params.buffer.page_size)
        self._tuples_per_fragment = schema.fact_count / self.geometry.fragment_count

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
            staggered=params.staggered_allocation,
            scheme=params.allocation_scheme,
            cluster_factor=params.cluster_factor,
            fact_fragment_pages=fact_override,
            bitmap_fragment_pages=bitmap_override,
        )

    # -- planning -----------------------------------------------------------

    def plan(self, query: StarQuery) -> QueryPlan:
        return plan_query(query, self.fragmentation, self.schema, self.catalog)

    def describe(self) -> str:
        """One-line identity, as ``warm_caches`` reports it."""
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

    def _bitmap_granule(self, tuples: float) -> int:
        """Bitmap prefetch granule for a fragment of ``tuples`` rows."""
        buffer = self.params.buffer
        if not buffer.adaptive_bitmap_prefetch:
            return buffer.prefetch_bitmap_pages
        raw = tuples / 8 / buffer.page_size
        return max(1, min(buffer.prefetch_bitmap_pages, math.ceil(raw)))

    #: Refuse to materialise per-fragment skew arrays beyond this size.
    _SKEW_FRAGMENT_LIMIT = 5_000_000

    def _skewed_fragment_tuples(self):
        """Zipf-distributed tuples per fragment (deterministic in seed).

        Rank ``r`` gets weight ``1 / r^theta``; ranks are randomly
        permuted over fragment ids so the skew does not correlate with
        the allocation order.  Totals are normalised to the schema's
        fact count.
        """
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

    # -- work expansion ---------------------------------------------------------

    def iter_subquery_work(self, plan: QueryPlan) -> Iterator[SubqueryWork]:
        """Lazily expand a plan into subquery work units.

        Yields in fragment-allocation order, matching the paper's task
        list ("sorted in the order in which the fragments were allocated
        to disks, so that consecutive subqueries can be expected to
        access different disks").  A unit is one selected fragment, or
        with ``cluster_factor > 1`` the selected fragments of one
        allocation unit (Section 6.3), whose bitmap fragments are packed
        into consecutive pages and read as one extent.

        The selected fragments are expanded block by block
        (:func:`_expansion_blocks`).  Alive at a time are one block's
        fragment ids (decoded from their positions by
        :meth:`~repro.mdhf.routing.QueryPlan.fragment_ids`), its numpy
        arrays and per-unit value lists, and the units in flight; a
        unit's bitmap disks and starts become lists only as the unit is
        emitted.  None of it grows with the number of fragments the
        plan selects.  Each block runs two steps.

        Step 1 gives every fragment its relevant rows and the index of
        its fact extent template, and every template its bitmap extents
        and pages per bitmap read.  Uniform fragments spread the plan's
        expected hits and hit granules over the fragment sequence
        (:func:`_spread_count_array`, from the block's first position);
        skewed fragments scale them with their own population.  A
        template is interned by the value that fixes it (hit granules
        or population), so its index is the same in every block.

        Step 2 emits the units.  A unit's layout — each fragment's start
        relative to the unit's first fact page (``fact_start``), and its
        template — fixes its batch list, so units with equal layouts
        share one list of :class:`~repro.sim.disk.ExtentTemplate`
        batches, interned by content within one call.
        """
        count = plan.fragment_count
        if not count:
            return
        fragment_ids = partial(plan.fragment_ids, self.geometry)
        params = self.params
        prefetch = params.buffer.prefetch_fact_pages
        n_bitmaps = plan.bitmaps_per_fragment
        allocation = self.allocation
        cluster_factor = params.cluster_factor
        skew_tuples = self._skew_tuples

        # Interned templates with their (bitmap extents, pages per read)
        # and, for skewed fragments, their relevant rows.
        templates: list[list[tuple[int, int]]] = []
        bitmaps: list[tuple[list[tuple[int, int]], int]] = []
        relevant_of: list[int | None] = []
        index_of: dict[int, int] = {}
        if skew_tuples is None:
            pages = self.fact_pages_per_fragment
            granules = math.ceil(pages / prefetch)
            bitmap_pages = allocation.bitmap_pages_per_fragment
            bitmap_read = (
                ExtentTemplate(
                    self._sequential_extents(
                        0,
                        bitmap_pages,
                        self._bitmap_granule(self._tuples_per_fragment),
                    )
                ),
                bitmap_pages,
            )
            if plan.all_rows_relevant:
                # Every fragment shares template 0.  Full scans skip
                # interning on purpose: the first ``np.unique`` call in
                # a process raises its peak RSS by about 0.4 MiB, which
                # a run of full scans alone would otherwise pay.
                templates.append(self._sequential_extents(0, pages, prefetch))
                bitmaps.append(bitmap_read)
            else:
                hit_pages = distinct_blocks(
                    round(self._tuples_per_fragment),
                    self._tuples_per_page,
                    plan.hits_per_fragment,
                )
                hit_granules = min(
                    float(granules), cardenas(granules, hit_pages)
                )

            def shape(count: int) -> tuple:
                extents = self._spread_extents(
                    0, pages, prefetch, granules, count
                )
                return extents, bitmap_read, None

        else:

            def shape(tuples: int) -> tuple:
                # Hits scale with the fragment's population (uniformity
                # *within* fragments is kept); I/O follows its actual
                # page count inside its reserved slot.
                pages = math.ceil(tuples / self._tuples_per_page)
                granules = math.ceil(pages / prefetch)
                if plan.all_rows_relevant:
                    relevant = tuples
                    extents = self._sequential_extents(0, pages, prefetch)
                else:
                    relevant = round(
                        plan.hits_per_fragment * tuples
                        / self._tuples_per_fragment
                    )
                    hit_pages = (
                        cardenas(pages, relevant) if pages and relevant else 0.0
                    )
                    hits = (
                        round(min(granules, cardenas(granules, hit_pages)))
                        if hit_pages
                        else 0
                    )
                    extents = self._spread_extents(
                        0, pages, prefetch, granules, hits
                    )
                bitmap_pages = 0
                bitmap_extents: list[tuple[int, int]] = []
                if n_bitmaps and tuples:
                    raw_pages = tuples / 8 / params.buffer.page_size
                    bitmap_pages = max(1, math.ceil(raw_pages))
                    bitmap_extents = ExtentTemplate(
                        self._sequential_extents(
                            0, bitmap_pages, self._bitmap_granule(tuples)
                        )
                    )
                return extents, (bitmap_extents, bitmap_pages), relevant

        def template_indices(keys: np.ndarray) -> np.ndarray:
            values, inverse = np.unique(keys, return_inverse=True)
            indices = []
            for value in values.tolist():
                index = index_of.get(value)
                if index is None:
                    index = index_of[value] = len(templates)
                    extents, bitmap, relevant = shape(value)
                    templates.append(extents)
                    bitmaps.append(bitmap)
                    relevant_of.append(relevant)
                indices.append(index)
            return np.asarray(indices, dtype=np.int64)[inverse]

        empty: list = []
        # A clustered unit reads one packed extent per bitmap, whose
        # length depends only on the unit's number of fragments.
        cluster_bitmaps: dict[int, tuple[list[tuple[int, int]], int]] = {}

        def block_rows(lo: int, hi: int) -> Iterator[tuple]:
            """One row of unit values per unit of positions ``lo:hi``."""
            block = fragment_ids(lo, hi)
            # Step 1: per-fragment shape.
            if skew_tuples is None:
                relevants = _spread_count_array(
                    plan.hits_per_fragment, hi - lo, lo
                )
                template_of = (
                    np.zeros(hi - lo, dtype=np.int64)
                    if plan.all_rows_relevant
                    else template_indices(
                        _spread_count_array(hit_granules, hi - lo, lo)
                    )
                )
            else:
                template_of = template_indices(skew_tuples[block])
                relevants = np.asarray(relevant_of, dtype=np.int64)[
                    template_of
                ]

            # Step 2 rows.
            fact_disks, fact_starts = allocation.fact_locations(block)
            bitmap_rows = (repeat(empty), repeat(empty))
            if cluster_factor == 1:
                # A single-fragment unit's layout key is its template
                # index.  Its bitmap (disks, starts) are one row of the
                # block's placement arrays, turned into lists only as
                # the unit is emitted.
                if n_bitmaps:
                    bitmap_rows = [
                        map(np.ndarray.tolist, rows)
                        for rows in allocation.bitmap_locations(
                            block, n_bitmaps
                        )
                    ]
                return zip(
                    block.tolist(),
                    fact_disks.tolist(),
                    fact_starts.tolist(),
                    template_of.tolist(),
                    relevants.tolist(),
                    *bitmap_rows,
                )
            # Clusters are consecutive runs of equal allocation unit; a
            # cluster's (relative start, template) rows are its layout,
            # and their bytes its key.
            cluster_of = block // cluster_factor
            boundaries = np.flatnonzero(np.diff(cluster_of)) + 1
            firsts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
            ends = np.append(boundaries, hi - lo)
            sizes = ends - firsts
            bases = fact_starts[firsts]
            layout_rows = np.stack(
                (fact_starts - np.repeat(bases, sizes), template_of), axis=1
            )
            relevant_cumsum = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(relevants))
            )
            if n_bitmaps:
                *located, cluster_pages = (
                    allocation.bitmap_cluster_locations(
                        cluster_of[firsts], sizes, n_bitmaps
                    )
                )
                bitmap_rows = [map(np.ndarray.tolist, rows) for rows in located]
                for size, pages in zip(sizes.tolist(), cluster_pages):
                    if size not in cluster_bitmaps:
                        cluster_bitmaps[size] = ([(0, pages)], pages)
            return zip(
                block[firsts].tolist(),
                fact_disks[firsts].tolist(),
                bases.tolist(),
                [
                    layout_rows[first:end].tobytes()
                    for first, end in zip(firsts.tolist(), ends.tolist())
                ],
                (relevant_cumsum[ends] - relevant_cumsum[firsts]).tolist(),
                *bitmap_rows,
            )

        # ``chain`` drops each block's rows before it builds the next.
        units = chain.from_iterable(
            block_rows(lo, hi)
            for lo, hi in _expansion_blocks(count, fragment_ids, cluster_factor)
        )
        coalesce = params.io_coalesce
        layouts: dict[int | bytes, tuple] = {}
        shared_batches: dict[tuple, tuple[ExtentTemplate, int]] = {}
        for (
            fragment_id, fact_disk, base, key, relevant, disk_row, start_row
        ) in units:
            layout = layouts.get(key)
            if layout is None:
                if isinstance(key, bytes):
                    rows = np.frombuffer(key, dtype=np.int64).reshape(-1, 2)
                    rows = rows.tolist()
                    bitmap_extents, bitmap_pages = cluster_bitmaps.get(
                        len(rows), (empty, 0)
                    )
                else:
                    rows = [(0, key)]
                    bitmap_extents, bitmap_pages = bitmaps[key]
                extents = [
                    (start + offset, pages)
                    for start, index in rows
                    for offset, pages in templates[index]
                ]
                layout = layouts[key] = (
                    [
                        shared_batches.setdefault(tuple(batch), (batch, total))
                        for batch, total in batch_extents(extents, coalesce)
                    ],
                    sum(pages for _start, pages in extents),
                    bitmap_extents,
                    bitmap_pages,
                    len(rows),
                )
            batches, fact_pages, bitmap_extents, bitmap_pages, count = layout
            has_bitmaps = n_bitmaps and bitmap_pages
            yield SubqueryWork(
                fragment_id=fragment_id,
                fact_disk=fact_disk,
                fact_start=base,
                fact_batches=batches,
                fact_pages=fact_pages,
                bitmap_disks=disk_row if has_bitmaps else empty,
                bitmap_starts=start_row if has_bitmaps else empty,
                bitmap_extents=bitmap_extents,
                bitmap_pages_per_read=bitmap_pages,
                bitmap_pages=bitmap_pages * n_bitmaps,
                relevant_rows=relevant,
                fragment_count=count,
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
