"""Fragment routing: which fragments and bitmaps a query touches.

Implements steps 1–2 of the paper's processing model (Section 4.3):

1. determine the fact fragments to process from the query's attributes
   and the fragmentation attributes (projecting query values up or down
   the dimension hierarchies), and
2. determine, per query attribute, whether bitmap access is needed and
   which bitmaps — needed iff the attribute's dimension is not in F, or
   it is but the attribute sits on a *lower* hierarchy level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from repro.bitmap.catalog import IndexCatalog
from repro.mdhf.classify import IOClass, QueryClass, classify_io, classify_query
from repro.mdhf.fragments import FragmentGeometry
from repro.mdhf.query import StarQuery
from repro.mdhf.spec import Fragmentation
from repro.schema.fact import StarSchema


@dataclass(frozen=True)
class BitmapRequirement:
    """Bitmap access needed for one query attribute (per fragment).

    Attributes:
        dimension: The attribute's dimension.
        level: The attribute's hierarchy level.
        implied_level: The fragmentation level of the same dimension if
            it lies strictly above ``level`` (the fragment then implies
            the encoding prefix down to it), else ``None``.
        bitmaps_per_fragment: Distinct bitmap fragments read per fact
            fragment (encoded: evaluated bit positions; simple: one per
            predicate value).
    """

    dimension: str
    level: str
    implied_level: str | None
    bitmaps_per_fragment: int


@dataclass(frozen=True)
class QueryPlan:
    """The routing result for one query under one fragmentation."""

    query: StarQuery
    fragmentation: Fragmentation
    query_class: QueryClass
    io_class: IOClass
    #: Per fragmentation attribute (allocation order): fragment-coordinate
    #: values the query touches on that axis.
    axis_values: tuple[tuple[int, ...], ...]
    #: Bitmap accesses required per fragment (empty for IOC1 queries).
    bitmap_requirements: tuple[BitmapRequirement, ...]
    #: Expected matching fact rows over the whole query.
    expected_hits: float
    #: True iff every row of every selected fragment matches the query.
    all_rows_relevant: bool

    @property
    def fragment_count(self) -> int:
        return math.prod(len(values) for values in self.axis_values)

    @property
    def hits_per_fragment(self) -> float:
        return self.expected_hits / self.fragment_count

    @property
    def bitmaps_per_fragment(self) -> int:
        return sum(r.bitmaps_per_fragment for r in self.bitmap_requirements)

    def iter_coordinates(self) -> Iterator[tuple[int, ...]]:
        """All selected fragment coordinates (allocation order)."""
        return itertools.product(*self.axis_values)

    def iter_fragment_ids(self, geometry: FragmentGeometry) -> Iterator[int]:
        """Linear ids of all selected fragments, in allocation order."""
        if geometry.fragmentation != self.fragmentation:
            raise ValueError("geometry built for a different fragmentation")
        for coordinate in self.iter_coordinates():
            yield geometry.linear_id(coordinate)

    def fragment_ids(
        self, geometry: FragmentGeometry, lo: int = 0, hi: int | None = None
    ):
        """Ids of the selected fragments at positions ``lo:hi``.

        An int64 numpy array equal to
        ``list(self.iter_fragment_ids(geometry))[lo:hi]``.  Each position
        is decoded in mixed radix over the axes, the last axis fastest
        (``itertools.product`` order), and each digit picks its axis
        value's id offset.  The result costs memory for ``hi - lo`` ids,
        not for every selected fragment (the simulator expands plans
        with millions of them block by block).
        """
        import numpy as np

        if geometry.fragmentation != self.fragmentation:
            raise ValueError("geometry built for a different fragmentation")
        shape, offsets = self._axis_offsets(geometry.strides)
        count = math.prod(shape)
        if hi is None:
            hi = count
        if not 0 <= lo <= hi <= count:
            raise ValueError(f"positions {lo}:{hi} outside [0, {count}]")
        digits = np.unravel_index(np.arange(lo, hi), shape)
        ids = offsets[0][digits[0]]
        for axis, digit in zip(offsets[1:], digits[1:]):
            ids += axis[digit]
        return ids

    def _axis_offsets(self, strides: tuple[int, ...]) -> tuple:
        """``(shape, offsets)``: the number of values per axis, and per
        axis ``values * stride`` as an int64 numpy array.

        Kept on the plan (outside its fields) for the strides it was
        last built for, so the blocks of one expansion share it.
        """
        import numpy as np

        cached = self.__dict__.get("_axis_offsets_cache")
        if cached is None or cached[0] != strides:
            cached = self.__dict__["_axis_offsets_cache"] = (
                strides,
                tuple(map(len, self.axis_values)),
                [
                    np.asarray(values, dtype=np.int64) * stride
                    for values, stride in zip(self.axis_values, strides)
                ],
            )
        return cached[1:]


def plan_query(
    query: StarQuery,
    fragmentation: Fragmentation,
    schema: StarSchema,
    catalog: IndexCatalog | None = None,
) -> QueryPlan:
    """Route ``query`` under ``fragmentation`` (steps 1–2 of Section 4.3)."""
    query.validate(schema)
    fragmentation.validate(schema)
    if catalog is None:
        catalog = IndexCatalog(schema)

    axis_values = []
    for attr, axis_size in zip(
        fragmentation.attributes, fragmentation.axis_sizes(schema)
    ):
        hierarchy = schema.dimension(attr.dimension).hierarchy
        partition = fragmentation.partition_for(attr.dimension)
        pred = query.predicate_for(attr.dimension)
        if pred is None:
            # Dimension unreferenced: every value of the axis is touched.
            axis_values.append(tuple(range(axis_size)))
            continue
        projected: set[int] = set()
        for value in pred.values:
            span = hierarchy.project(pred.attribute.level, value, attr.level)
            if partition is None:
                projected.update(span)
            else:
                projected.update(partition.ranges_covering(span))
        axis_values.append(tuple(sorted(projected)))

    requirements = []
    for pred in query.predicates:
        dim = pred.attribute.dimension
        hierarchy = schema.dimension(dim).hierarchy
        implied_level: str | None = None
        if fragmentation.covers(dim) and fragmentation.is_point_on(dim):
            frag_level = fragmentation.level_for(dim)
            if not hierarchy.is_above(frag_level, pred.attribute.level):
                # Attribute at or above the fragmentation level: the
                # fragment choice absorbs the predicate (Q1/Q3), no
                # bitmap needed for it.  Only point fragmentations can
                # absorb — a range fragment mixes several values.
                continue
            implied_level = frag_level
        descriptor = catalog.descriptor(dim)
        per_value = descriptor.bitmaps_for_selection(
            pred.attribute.level, implied_level
        )
        if descriptor.kind.value == "simple":
            count = per_value * pred.value_count
        else:
            # Encoded indices evaluate the same physical bitmaps for
            # every value of an IN-list.
            count = per_value
        requirements.append(
            BitmapRequirement(
                dimension=dim,
                level=pred.attribute.level,
                implied_level=implied_level,
                bitmaps_per_fragment=count,
            )
        )

    return QueryPlan(
        query=query,
        fragmentation=fragmentation,
        query_class=classify_query(query, fragmentation, schema),
        io_class=classify_io(query, fragmentation, schema),
        axis_values=tuple(axis_values),
        bitmap_requirements=tuple(requirements),
        expected_hits=query.expected_hits(schema),
        all_rows_relevant=not requirements,
    )
