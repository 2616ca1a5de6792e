"""Staggered round-robin placement of fact and bitmap fragments.

Implements Figure 2: fact fragment ``i`` goes to disk ``i mod d``; the
``k`` bitmap fragments associated with it go to the following disks
``i+1, ..., i+k (mod d)`` so that a subquery can read them all in
parallel.  Fact and bitmap data share every disk ("to allow all disks to
be used for the fact table"), with each disk laid out as its fact region
followed by per-bitmap subregions.

Two remedies the paper sketches are implemented as options:

* ``scheme="gap"`` — Section 4.6's "modified allocation scheme
  introducing certain gaps": every round of ``d`` fragments is shifted
  by one disk, so stride-structured queries (1CODE under F_MonthGroup)
  no longer cluster on ``d / gcd(stride, d)`` disks.
* ``cluster_factor=c`` — Section 6.3's fix for over-fine
  fragmentations: ``c`` consecutive fragments form one allocation unit
  whose (sub-page) bitmap fragments pack into consecutive pages, read
  and processed by a single subquery.

All placements are computed analytically (O(1) per lookup) because the
finest fragmentations have millions of bitmap fragments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mdhf.fragments import FragmentGeometry

#: Allocation schemes for mapping allocation units to disks.
SCHEMES = ("round_robin", "gap")


@dataclass(frozen=True)
class FragmentPlacement:
    """Physical location of one (fact or bitmap) fragment."""

    disk: int
    start_page: int
    pages: int

    @property
    def end_page(self) -> int:
        """First page past this extent."""
        return self.start_page + self.pages


class DiskAllocation:
    """Round-robin allocation of one fragmentation onto ``n_disks``.

    Args:
        geometry: Fragment geometry of the fact table.
        n_disks: Number of disks (full declustering over all of them).
        kept_bitmaps: Number of materialised bitmaps after elimination
            (each is fragmented exactly like the fact table).
        page_size: Page size in bytes.
        staggered: If True (paper default), the bitmap fragments of one
            fact fragment go to consecutive *distinct* disks; if False,
            they are all co-located on the disk after the fact fragment,
            which serialises bitmap I/O within a subquery.
    """

    def __init__(
        self,
        geometry: FragmentGeometry,
        n_disks: int,
        kept_bitmaps: int,
        page_size: int = 4096,
        staggered: bool = True,
        scheme: str = "round_robin",
        cluster_factor: int = 1,
        fact_fragment_pages: int | None = None,
        bitmap_fragment_pages: int | None = None,
    ):
        if n_disks <= 0:
            raise ValueError("n_disks must be positive")
        if kept_bitmaps < 0:
            raise ValueError("kept_bitmaps must be non-negative")
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        if cluster_factor < 1:
            raise ValueError("cluster_factor must be >= 1")
        self.geometry = geometry
        self.n_disks = n_disks
        self.kept_bitmaps = kept_bitmaps
        self.page_size = page_size
        self.staggered = staggered
        self.scheme = scheme
        self._gap = scheme == "gap"
        self.cluster_factor = cluster_factor

        # Reserved extent sizes; overridable for skewed databases that
        # reserve slots sized for their largest fragment.
        self._fact_pages = (
            fact_fragment_pages
            if fact_fragment_pages is not None
            else geometry.fact_pages_of_fragment(page_size)
        )
        self._bitmap_pages = (
            bitmap_fragment_pages
            if bitmap_fragment_pages is not None
            else geometry.bitmap_pages_of_fragment(page_size)
        )
        if self._fact_pages < 1 or self._bitmap_pages < 1:
            raise ValueError("fragment extents must cover at least one page")
        n = geometry.fragment_count
        c = cluster_factor
        self._n_units = math.ceil(n / c)
        #: Raw (sub-page) bitmap bytes per fragment, for cluster packing.
        self._bitmap_raw_bytes = geometry.sizes(page_size).bitmap_bytes_per_fragment
        self._fact_unit_pages = c * self._fact_pages
        self._bitmap_unit_pages = max(
            1, math.ceil(c * self._bitmap_raw_bytes / page_size)
        )
        self._slots_per_disk = math.ceil(self._n_units / n_disks)
        self._fact_region_pages = self._slots_per_disk * self._fact_unit_pages
        self._bitmap_subregion_pages = (
            self._slots_per_disk * self._bitmap_unit_pages
        )

    # -- unit mapping -------------------------------------------------------

    def unit_of(self, fragment_id: int) -> int:
        """Allocation unit (fragment cluster) of a fragment."""
        self._check_fragment(fragment_id)
        return fragment_id // self.cluster_factor

    def _unit_disk(self, unit: int) -> int:
        if self.scheme == "gap":
            # Shift every round of d units by one disk: stride patterns
            # no longer align with the disk count (Section 4.6).
            return (unit + unit // self.n_disks) % self.n_disks
        return unit % self.n_disks

    # -- placements --------------------------------------------------------

    def fact_location(self, fragment_id: int) -> tuple[int, int]:
        """``(disk, start_page)`` of one fact fragment.

        The allocation-free twin of :meth:`fact_placement` for the
        simulator's per-fragment work expansion, which calls it once per
        subquery and needs no dataclass wrapper.
        """
        self._check_fragment(fragment_id)
        n_disks = self.n_disks
        unit = fragment_id // self.cluster_factor
        within = fragment_id - unit * self.cluster_factor
        slot = unit // n_disks
        disk = (unit + slot) % n_disks if self._gap else unit % n_disks
        return disk, slot * self._fact_unit_pages + within * self._fact_pages

    def fact_placement(self, fragment_id: int) -> FragmentPlacement:
        """Disk and page extent of one fact fragment."""
        disk, start_page = self.fact_location(fragment_id)
        return FragmentPlacement(
            disk=disk,
            start_page=start_page,
            pages=self._fact_pages,
        )

    def bitmap_location(self, bitmap_index: int, fragment_id: int) -> tuple[int, int]:
        """``(disk, start_page)`` of one bitmap fragment.

        The allocation-free twin of :meth:`bitmap_placement` (the extent
        length is the constant :attr:`bitmap_pages_per_fragment`).
        """
        self._check_fragment(fragment_id)
        self._check_bitmap(bitmap_index)
        if self.cluster_factor != 1:
            raise ValueError(
                "per-fragment bitmap placement is undefined for clustered "
                "allocations; use bitmap_cluster_placement"
            )
        n_disks = self.n_disks
        unit = fragment_id
        slot = unit // n_disks
        start = (
            self._fact_region_pages
            + bitmap_index * self._bitmap_subregion_pages
            + slot * self._bitmap_pages
        )
        base = (unit + slot) % n_disks if self._gap else unit % n_disks
        offset = 1 + bitmap_index if self.staggered else 1
        return (base + offset) % n_disks, start

    def fact_locations(self, fragment_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`fact_location`: ``(disks, start_pages)`` arrays.

        ``fragment_ids`` must already be validated (the caller iterates
        geometry-derived ids).
        """
        n_disks = self.n_disks
        units = fragment_ids // self.cluster_factor
        within = fragment_ids - units * self.cluster_factor
        slots = units // n_disks
        disks = (units + slots) % n_disks if self._gap else units % n_disks
        starts = slots * self._fact_unit_pages + within * self._fact_pages
        return disks, starts

    def bitmap_locations(
        self, fragment_ids: np.ndarray, n_bitmaps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`bitmap_location` over validated ids.

        Returns ``(disks, starts)``, two int64 arrays of shape
        ``(len(fragment_ids), n_bitmaps)``: row ``i``, column ``bi``
        locates bitmap ``bi`` of ``fragment_ids[i]``.
        """
        self._check_bitmap(n_bitmaps - 1)
        if self.cluster_factor != 1:
            raise ValueError(
                "per-fragment bitmap placement is undefined for clustered "
                "allocations; use bitmap_cluster_placement"
            )
        n_disks = self.n_disks
        slots = fragment_ids // n_disks
        base_disks = (
            (fragment_ids + slots) % n_disks
            if self._gap
            else fragment_ids % n_disks
        )
        return self._bitmap_rows(
            base_disks,
            self._fact_region_pages + slots * self._bitmap_pages,
            n_bitmaps,
        )

    def bitmap_placement(self, bitmap_index: int, fragment_id: int) -> FragmentPlacement:
        """Disk and page extent of one bitmap fragment.

        ``bitmap_index`` enumerates the materialised bitmaps ``0..k-1``.
        With ``cluster_factor > 1`` bitmap fragments pack sub-page within
        their cluster; use :meth:`bitmap_cluster_placement` instead.
        """
        disk, start = self.bitmap_location(bitmap_index, fragment_id)
        return FragmentPlacement(
            disk=disk,
            start_page=start,
            pages=self._bitmap_pages,
        )

    def bitmap_cluster_placement(
        self, bitmap_index: int, unit: int, fragments_selected: int | None = None
    ) -> FragmentPlacement:
        """Extent of one bitmap's packed fragments for a whole cluster.

        ``fragments_selected`` bounds the read when a query touches only
        part of the cluster (its bitmap bytes are contiguous).
        """
        self._check_bitmap(bitmap_index)
        if not 0 <= unit < self._n_units:
            raise ValueError(f"unit {unit} out of range [0, {self._n_units})")
        count = (
            self.cluster_factor
            if fragments_selected is None
            else min(fragments_selected, self.cluster_factor)
        )
        if count < 1:
            raise ValueError("fragments_selected must be >= 1")
        pages = max(1, math.ceil(count * self._bitmap_raw_bytes / self.page_size))
        slot = unit // self.n_disks
        start = (
            self._fact_region_pages
            + bitmap_index * self._bitmap_subregion_pages
            + slot * self._bitmap_unit_pages
        )
        return FragmentPlacement(
            disk=self._bitmap_disk(unit, bitmap_index),
            start_page=start,
            pages=min(pages, self._bitmap_unit_pages),
        )

    def bitmap_cluster_locations(
        self,
        units: np.ndarray,
        fragments_selected: np.ndarray,
        n_bitmaps: int,
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Vectorised :meth:`bitmap_cluster_placement` over many units.

        For ``units[g]`` with ``fragments_selected[g]`` selected
        fragments, returns ``(disks, starts, pages)`` where the int64
        arrays' ``disks[g, bi]`` / ``starts[g, bi]`` locate bitmap ``bi``'s
        packed extent of cluster ``g`` and ``pages[g]`` is its length
        (identical for every bitmap of one cluster).  The element
        operations mirror the scalar method exactly, so placements are
        identical; ``units`` must already be validated (the caller
        derives them from geometry-checked fragment ids).
        """
        self._check_bitmap(n_bitmaps - 1)
        n_disks = self.n_disks
        counts = np.minimum(fragments_selected, self.cluster_factor)
        pages = np.minimum(
            np.maximum(
                np.ceil(
                    counts * self._bitmap_raw_bytes / self.page_size
                ).astype(np.int64),
                1,
            ),
            self._bitmap_unit_pages,
        ).tolist()
        slots = units // n_disks
        base_disks = (units + slots) % n_disks if self._gap else units % n_disks
        disks, starts = self._bitmap_rows(
            base_disks,
            self._fact_region_pages + slots * self._bitmap_unit_pages,
            n_bitmaps,
        )
        return disks, starts, pages

    def _bitmap_rows(
        self, base_disks: np.ndarray, start_base: np.ndarray, n_bitmaps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(disks, starts)`` of bitmaps ``0..n_bitmaps-1``, one row per
        entry of ``base_disks`` (the fact disk) and ``start_base`` (the
        slot's start within bitmap subregion 0), by broadcasting."""
        bitmaps = np.arange(n_bitmaps, dtype=np.int64)
        offsets = 1 + bitmaps if self.staggered else np.ones_like(bitmaps)
        disks = (base_disks[:, None] + offsets) % self.n_disks
        starts = start_base[:, None] + bitmaps * self._bitmap_subregion_pages
        return disks, starts

    def _bitmap_disk(self, unit: int, bitmap_index: int) -> int:
        base = self._unit_disk(unit)
        if self.staggered:
            return (base + 1 + bitmap_index) % self.n_disks
        return (base + 1) % self.n_disks

    # -- capacity ------------------------------------------------------------

    @property
    def fact_pages_per_fragment(self) -> int:
        """Reserved pages per fact fragment."""
        return self._fact_pages

    @property
    def bitmap_pages_per_fragment(self) -> int:
        """Reserved pages per bitmap fragment."""
        return self._bitmap_pages

    def pages_per_disk(self) -> int:
        """Upper bound of pages allocated on any single disk."""
        return (
            self._fact_region_pages
            + self.kept_bitmaps * self._bitmap_subregion_pages
        )

    def _check_fragment(self, fragment_id: int) -> None:
        n = self.geometry.fragment_count
        if not 0 <= fragment_id < n:
            raise ValueError(f"fragment id {fragment_id} out of range [0, {n})")

    def _check_bitmap(self, bitmap_index: int) -> None:
        if not 0 <= bitmap_index < max(self.kept_bitmaps, 1):
            raise ValueError(
                f"bitmap index {bitmap_index} out of range "
                f"[0, {self.kept_bitmaps})"
            )

    def __repr__(self) -> str:
        return (
            f"DiskAllocation(disks={self.n_disks}, "
            f"fragments={self.geometry.fragment_count:,}, "
            f"bitmaps={self.kept_bitmaps}, staggered={self.staggered})"
        )


def build_allocation(
    geometry: FragmentGeometry,
    n_disks: int,
    kept_bitmaps: int,
    page_size: int = 4096,
    staggered: bool = True,
    scheme: str = "round_robin",
    cluster_factor: int = 1,
) -> DiskAllocation:
    """Convenience constructor mirroring the paper's two-step process."""
    return DiskAllocation(
        geometry=geometry,
        n_disks=n_disks,
        kept_bitmaps=kept_bitmaps,
        page_size=page_size,
        staggered=staggered,
        scheme=scheme,
        cluster_factor=cluster_factor,
    )
