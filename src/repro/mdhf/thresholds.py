"""Fragmentation thresholds and option enumeration (Section 4.4, Table 2).

Too fine a fragmentation shrinks bitmap fragments below the prefetch
granule (or below one page), blowing up bitmap I/O; too coarse a one
cannot keep all disks busy.  The paper bounds the fragment count by

    n_max = N / (8 * PgSize * PrefetchGran)

(14,238 for APB-1 with 4 KB pages and a granule of 4) and counts, per
dimensionality, how many of the 167 possible fragmentations survive
various minimum bitmap-fragment sizes (Table 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.bitmap.sizing import bitmap_fragment_pages
from repro.mdhf.spec import Fragmentation
from repro.schema.fact import StarSchema


def max_fragment_threshold(
    fact_count: int, page_size: int, prefetch_granule: int
) -> int:
    """The paper's ``n_max`` bound on the number of fragments."""
    if page_size <= 0 or prefetch_granule <= 0:
        raise ValueError("page_size and prefetch_granule must be positive")
    return int(fact_count / (8 * page_size * prefetch_granule))


@dataclass(frozen=True)
class FragmentationOption:
    """One enumerated fragmentation with its derived figures."""

    fragmentation: Fragmentation
    fragment_count: int
    bitmap_fragment_pages: float

    @property
    def dimensionality(self) -> int:
        return self.fragmentation.dimensionality


def check_count(name: str, value: int | None) -> None:
    """Reject a count knob below 1, naming it; ``None`` (unset) passes."""
    if value is not None and not value >= 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


def check_page_threshold(name: str, value: float) -> None:
    """Reject a non-finite or negative page threshold, naming it."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(
            f"{name} must be finite and non-negative, got {value!r}"
        )


def enumerate_fragmentations(
    schema: StarSchema,
    page_size: int = 4096,
    min_bitmap_pages: float = 0.0,
    max_fragments: int | None = None,
    dimensions: Sequence[str] | None = None,
) -> Iterator[FragmentationOption]:
    """Every point fragmentation satisfying the given constraints, lazily.

    Options combine one hierarchy level from any non-empty subset of the
    (given) dimensions: 167 in total for APB-1.  Filters:

    Args:
        min_bitmap_pages: Keep only options whose average bitmap fragment
            is at least this many pages (Table 2 uses 1, 4, 8).
        max_fragments: Optional cap on the fragment count (administration
            threshold).

    A bad knob raises ``ValueError`` here, at the call, not at the
    iterator's first ``next()``.
    """
    check_count("page_size", page_size)
    check_page_threshold("min_bitmap_pages", min_bitmap_pages)
    check_count("max_fragments", max_fragments)
    return _options(
        schema, page_size, min_bitmap_pages, max_fragments, dimensions
    )


def _options(
    schema: StarSchema,
    page_size: int,
    min_bitmap_pages: float,
    max_fragments: int | None,
    dimensions: Sequence[str] | None,
) -> Iterator[FragmentationOption]:
    """The generator behind :func:`enumerate_fragmentations`."""
    dim_names = list(dimensions) if dimensions else list(schema.dimension_names())
    per_dim_choices: list[list[str | None]] = []
    for name in dim_names:
        hierarchy = schema.dimension(name).hierarchy
        # None = dimension not used by the fragmentation.
        per_dim_choices.append([None] + [level.name for level in hierarchy])

    for combo in itertools.product(*per_dim_choices):
        attrs = [
            schema.dimension(dim).attribute(level)
            for dim, level in zip(dim_names, combo)
            if level is not None
        ]
        if not attrs:
            continue
        fragmentation = Fragmentation(attrs)
        n = fragmentation.fragment_count(schema)
        pages = bitmap_fragment_pages(schema.fact_count, n, page_size)
        if pages < min_bitmap_pages:
            continue
        if max_fragments is not None and n > max_fragments:
            continue
        yield FragmentationOption(
            fragmentation=fragmentation,
            fragment_count=n,
            bitmap_fragment_pages=pages,
        )


def option_counts_by_dimensionality(
    schema: StarSchema,
    page_size: int = 4096,
    min_bitmap_pages: float = 0.0,
) -> dict[int, int]:
    """Table 2's rows: surviving options per number of dimensions."""
    counts: dict[int, int] = {}
    for option in enumerate_fragmentations(
        schema, page_size=page_size, min_bitmap_pages=min_bitmap_pages
    ):
        m = option.dimensionality
        counts[m] = counts.get(m, 0) + 1
    return dict(sorted(counts.items()))
