"""Property tests: positional fragment ids equal the product order.

The work expander asks ``QueryPlan.fragment_ids(geometry, lo, hi)`` for
one block of selected fragment ids at a time, decoded from positions in
mixed radix.  For any fragmentation, query and range the ids must equal
the same slice of ``iter_fragment_ids`` — empty and full ranges, blocks
that tile the selection, and ranges that straddle a carry into a
slower axis.
"""

from __future__ import annotations

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.mdhf.fragments import FragmentGeometry
from repro.mdhf.routing import plan_query
from tests.properties.strategies import STANDARD, block_cuts
from tests.properties.test_properties import (
    TINY,
    tiny_fragmentations,
    tiny_queries,
)


def _plan(fragmentation, query):
    return (
        plan_query(query, fragmentation, TINY),
        FragmentGeometry(TINY, fragmentation),
    )


@STANDARD
@given(tiny_fragmentations(), tiny_queries(), st.data())
def test_any_range_equals_the_slice(fragmentation, query, data):
    plan, geometry = _plan(fragmentation, query)
    reference = list(plan.iter_fragment_ids(geometry))
    n = len(reference)
    assert plan.fragment_ids(geometry).tolist() == reference
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    assert plan.fragment_ids(geometry, lo, hi).tolist() == reference[lo:hi]
    assert plan.fragment_ids(geometry, lo, lo).tolist() == []


@STANDARD
@given(tiny_fragmentations(), tiny_queries(), st.data())
def test_blocks_concatenate_to_the_selection(fragmentation, query, data):
    plan, geometry = _plan(fragmentation, query)
    reference = list(plan.iter_fragment_ids(geometry))
    cuts = data.draw(block_cuts(len(reference)), label="cuts")
    blocked = [
        fragment_id
        for lo, hi in zip(cuts, cuts[1:])
        for fragment_id in plan.fragment_ids(geometry, lo, hi).tolist()
    ]
    assert blocked == reference


@STANDARD
@given(tiny_fragmentations(), tiny_queries(), st.data())
def test_ranges_straddling_an_axis_carry(fragmentation, query, data):
    """A range across position ``k * radix`` crosses the point where
    every axis from ``axis`` on wraps round and axis ``axis - 1``
    steps."""
    plan, geometry = _plan(fragmentation, query)
    lengths = [len(values) for values in plan.axis_values]
    assume(len(lengths) > 1)
    axis = data.draw(st.integers(1, len(lengths) - 1), label="axis")
    radix = math.prod(lengths[axis:])
    carries = plan.fragment_count // radix
    assume(carries > 1)
    carry = radix * data.draw(st.integers(1, carries - 1), label="k")
    lo = carry - data.draw(st.integers(1, min(carry, 3)), label="before")
    hi = carry + data.draw(st.integers(1, 3), label="after")
    hi = min(hi, plan.fragment_count)
    reference = list(plan.iter_fragment_ids(geometry))
    assert plan.fragment_ids(geometry, lo, hi).tolist() == reference[lo:hi]
