"""Fragment geometry: coordinates, linear ids, and sizes.

Fragments are addressed two ways:

* by *coordinate* — one value per fragmentation attribute, in allocation
  order, e.g. ``(month, group)`` for F_MonthGroup; and
* by *linear id* — the logical allocation order of Figure 2 (row-major
  over the coordinates: all fragments of month 1 first, then month 2 ...).

Sizes assume the paper's uniformity: fact rows divide evenly over
fragments, tuples pack ``floor(PgSize / SizeFactTuple)`` per page, and a
fragment's pages are stored consecutively on its disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.mdhf.spec import Fragmentation
from repro.schema.fact import StarSchema


@dataclass(frozen=True)
class FragmentSizes:
    """Uniform per-fragment sizes for one fragmentation of one schema."""

    tuples_per_fragment: float
    fact_pages_per_fragment: float
    bitmap_bytes_per_fragment: float
    bitmap_pages_per_fragment: float


#: Shared geometries keyed by (schema identity, fragmentation); values
#: hold a strong schema reference so an ``id()`` is never reused while
#: its key is alive.  Bounded: cleared wholesale when it grows past
#: ``_GEOMETRY_CACHE_LIMIT`` (geometries are cheap to rebuild).
_GEOMETRY_CACHE: dict[tuple[int, Fragmentation], tuple[StarSchema, "FragmentGeometry"]] = {}
_GEOMETRY_CACHE_LIMIT = 256


def geometry_for(
    schema: StarSchema, fragmentation: Fragmentation
) -> "FragmentGeometry":
    """A shared :class:`FragmentGeometry` for (schema, fragmentation).

    Geometries are immutable after construction, so every consumer of
    the same schema object and fragmentation (cost model, execution
    engine, simulator database, scenario run points) can share one
    instance instead of rebuilding the coordinate arithmetic per run.
    """
    key = (id(schema), fragmentation)
    cached = _GEOMETRY_CACHE.get(key)
    if cached is not None and cached[0] is schema:
        return cached[1]
    geometry = FragmentGeometry(schema, fragmentation)
    if len(_GEOMETRY_CACHE) >= _GEOMETRY_CACHE_LIMIT:
        _GEOMETRY_CACHE.clear()
    _GEOMETRY_CACHE[key] = (schema, geometry)
    return geometry


class FragmentGeometry:
    """Coordinate arithmetic and sizing for a fragmentation of a schema."""

    def __init__(self, schema: StarSchema, fragmentation: Fragmentation):
        fragmentation.validate(schema)
        self.schema = schema
        self.fragmentation = fragmentation
        self._cards = fragmentation.axis_sizes(schema)
        # Row-major strides: the *last* attribute varies fastest.
        strides = []
        stride = 1
        for card in reversed(self._cards):
            strides.append(stride)
            stride *= card
        self._strides = tuple(reversed(strides))
        self._count = stride

    @property
    def fragment_count(self) -> int:
        return self._count

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Fragments per axis (range counts for range-partitioned axes;
        equal to the attribute cardinalities for point fragmentations)."""
        return self._cards

    @property
    def strides(self) -> tuple[int, ...]:
        """Row-major stride per axis (the last attribute varies fastest)."""
        return self._strides

    def linear_id(self, coordinate: Sequence[int]) -> int:
        """Linear id of a fragment coordinate (Figure 2 order)."""
        if len(coordinate) != len(self._cards):
            raise ValueError(
                f"coordinate has {len(coordinate)} axes, expected "
                f"{len(self._cards)}"
            )
        linear = 0
        for value, card, stride in zip(coordinate, self._cards, self._strides):
            if not 0 <= value < card:
                raise ValueError(
                    f"coordinate value {value} out of range [0, {card})"
                )
            linear += value * stride
        return linear

    def coordinate(self, linear_id: int) -> tuple[int, ...]:
        """Inverse of :meth:`linear_id`."""
        if not 0 <= linear_id < self._count:
            raise ValueError(
                f"fragment id {linear_id} out of range [0, {self._count})"
            )
        coordinate = []
        for card, stride in zip(self._cards, self._strides):
            coordinate.append((linear_id // stride) % card)
        return tuple(coordinate)

    def iter_ids(self) -> Iterator[int]:
        return iter(range(self._count))

    def fragment_of_row(self, leaf_keys: dict[str, int]) -> int:
        """Fragment id of a fact row given its leaf foreign keys.

        Maps each leaf key to its ancestor at the fragmentation level;
        this is the partitioning function applied at load time.
        """
        coordinate = []
        for attr in self.fragmentation.attributes:
            hierarchy = self.schema.dimension(attr.dimension).hierarchy
            value = hierarchy.ancestor(leaf_keys[attr.dimension], attr.level)
            partition = self.fragmentation.partition_for(attr.dimension)
            if partition is not None:
                value = partition.range_of(value)
            coordinate.append(value)
        return self.linear_id(coordinate)

    def sizes(self, page_size: int) -> FragmentSizes:
        """Uniform per-fragment sizes (fact and bitmap side)."""
        n = self._count
        tuples = self.schema.fact_count / n
        per_page = self.schema.tuples_per_page(page_size)
        return FragmentSizes(
            tuples_per_fragment=tuples,
            fact_pages_per_fragment=tuples / per_page,
            bitmap_bytes_per_fragment=tuples / 8,
            bitmap_pages_per_fragment=tuples / 8 / page_size,
        )

    def fact_pages_of_fragment(self, page_size: int) -> int:
        """Whole pages per fact fragment (rounded up)."""
        return math.ceil(self.sizes(page_size).fact_pages_per_fragment)

    def bitmap_pages_of_fragment(self, page_size: int) -> int:
        """Whole pages per bitmap fragment (rounded up, >= 1)."""
        return max(1, math.ceil(self.sizes(page_size).bitmap_pages_per_fragment))

    def __repr__(self) -> str:
        return (
            f"FragmentGeometry({self.fragmentation}, "
            f"fragments={self._count:,})"
        )
