"""Fragmentation recommendation from schema + query mix (Section 4.7).

The paper's guidelines, mechanised:

1. *Exclude* fragmentations breaking a threshold: (i) minimal
   bitmap-fragment size, (ii) maximum number of fragments to administer,
   (iii) maximum number of materialised bitmaps.  We add the paper's
   side condition that one- or two-dimensional fragmentations "may have
   too few fragments to even use all available disks, which is of course
   unacceptable" — a minimum fragment count.
2. *Limit dimensionality* to the dimensions the query profile references.
3. *Rank* the remaining candidates by the total (weighted) analytic I/O
   work over the query mix; favoured queries can be prioritised via
   weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.bitmap.catalog import IndexCatalog
from repro.costmodel.iocost import IOCostParameters, estimate_io
from repro.mdhf.elimination import eliminate_bitmaps
from repro.mdhf.query import StarQuery
from repro.mdhf.routing import plan_query
from repro.mdhf.spec import Fragmentation
from repro.mdhf.thresholds import (
    check_count,
    check_page_threshold,
    enumerate_fragmentations,
)
from repro.schema.fact import StarSchema


@dataclass(frozen=True)
class AdvisorConfig:
    """Threshold settings for candidate filtering."""

    page_size: int = 4096
    #: Threshold (i): minimum average bitmap-fragment size in pages
    #: (the paper recommends the prefetch granule).
    min_bitmap_fragment_pages: float = 4.0
    #: Threshold (ii): maximum fragments whose metadata fits in memory.
    max_fragments: int | None = None
    #: Threshold (iii): maximum bitmaps to materialise.
    max_bitmaps: int | None = None
    #: At least one fragment per fact-table disk.
    min_fragments: int = 1
    #: Restrict candidate dimensions to those the query mix references.
    restrict_to_query_dimensions: bool = True
    io_params: IOCostParameters = field(default_factory=IOCostParameters)

    def __post_init__(self) -> None:
        check_count("page_size", self.page_size)
        check_page_threshold(
            "min_bitmap_fragment_pages", self.min_bitmap_fragment_pages
        )
        for name in ("max_fragments", "max_bitmaps", "min_fragments"):
            check_count(name, getattr(self, name))


@dataclass(frozen=True)
class Candidate:
    """One surviving fragmentation with its evaluation."""

    fragmentation: Fragmentation
    fragment_count: int
    bitmap_fragment_pages: float
    kept_bitmaps: int
    #: Weighted total I/O pages over the query mix.
    weighted_io_pages: float
    #: Per-query total I/O pages, in query-mix order.
    per_query_pages: tuple[float, ...]


@dataclass(frozen=True)
class AdvisorReport:
    """Ranked candidates (best first) plus filtering statistics."""

    candidates: tuple[Candidate, ...]
    options_total: int
    options_after_thresholds: int

    @property
    def best(self) -> Candidate:
        """The top-ranked candidate; raises if none survived."""
        if not self.candidates:
            raise ValueError("no fragmentation survived the thresholds")
        return self.candidates[0]


def recommend_fragmentation(
    schema: StarSchema,
    query_mix: Sequence[StarQuery | tuple[StarQuery, float]],
    config: AdvisorConfig | None = None,
    catalog: IndexCatalog | None = None,
) -> AdvisorReport:
    """Apply the Section 4.7 guidelines to a schema and query mix."""
    if not query_mix:
        raise ValueError("need at least one query in the mix")
    if config is None:
        config = AdvisorConfig()
    if catalog is None:
        catalog = IndexCatalog(schema)

    weighted: list[tuple[StarQuery, float]] = []
    for entry in query_mix:
        if isinstance(entry, tuple):
            query, weight = entry
        else:
            query, weight = entry, 1.0
        if weight < 0:
            raise ValueError("query weights must be non-negative")
        weighted.append((query, weight))

    dimensions = None
    if config.restrict_to_query_dimensions:
        referenced: set[str] = set()
        for query, _weight in weighted:
            referenced |= query.dimensions()
        dimensions = [
            d for d in schema.dimension_names() if d in referenced
        ]

    options_total = 0
    survivors = []
    for option in enumerate_fragmentations(
        schema,
        page_size=config.page_size,
        dimensions=dimensions,
    ):
        options_total += 1
        if option.bitmap_fragment_pages < config.min_bitmap_fragment_pages:
            continue
        if option.fragment_count < config.min_fragments:
            continue
        if (
            config.max_fragments is not None
            and option.fragment_count > config.max_fragments
        ):
            continue
        if config.max_bitmaps is not None:
            kept = eliminate_bitmaps(catalog, option.fragmentation).total_kept
            if kept > config.max_bitmaps:
                continue
        survivors.append(option)

    candidates = []
    for option in survivors:
        per_query = []
        total = 0.0
        for query, weight in weighted:
            plan = plan_query(query, option.fragmentation, schema, catalog)
            estimate = estimate_io(plan, schema, config.io_params)
            per_query.append(estimate.total_pages)
            total += weight * estimate.total_pages
        candidates.append(
            Candidate(
                fragmentation=option.fragmentation,
                fragment_count=option.fragment_count,
                bitmap_fragment_pages=option.bitmap_fragment_pages,
                kept_bitmaps=eliminate_bitmaps(
                    catalog, option.fragmentation
                ).total_kept,
                weighted_io_pages=total,
                per_query_pages=tuple(per_query),
            )
        )
    candidates.sort(key=lambda c: (c.weighted_io_pages, c.fragment_count))
    return AdvisorReport(
        candidates=tuple(candidates),
        options_total=options_total,
        options_after_thresholds=len(survivors),
    )
