"""Property tests: streaming metric aggregates are exact.

A :class:`SimulationResult` folds each record into Shewchuk sums and a
state-independent percentile sketch as it arrives.  These properties
drive that promise with arbitrary floats (no "nice" values): the
aggregates must not depend on the order records arrive in, nor on
whether the records themselves are retained.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.metrics import QueryMetrics, SimulationResult

from tests.properties.strategies import QUICK

#: Non-negative finite times spanning many orders of magnitude so
#: sums genuinely lose associativity under plain float addition.
_times = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-9, 0.1, 1.0, 3.0, 1e6]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def _records(draw, max_size: int = 40):
    entries = draw(
        st.lists(
            st.tuples(
                _times,                            # response_time
                _times,                            # queue_delay
                st.integers(0, 5),                 # stream
                st.integers(0, 50),                # fact_pages
            ),
            max_size=max_size,
        )
    )
    return [
        QueryMetrics(
            name=f"q{i}",
            response_time=response,
            subqueries=1,
            fact_io_ops=pages,
            fact_pages=pages,
            bitmap_io_ops=0,
            bitmap_pages=0,
            coordinator_node=0,
            stream=stream,
            queue_delay=queue,
        )
        for i, (response, queue, stream, pages) in enumerate(entries)
    ]


def _recorded(records, **kwargs) -> SimulationResult:
    result = SimulationResult(**kwargs)
    for record in records:
        result.record(record)
    return result


def _assert_aggregates_identical(left, right) -> None:
    assert left.query_count == right.query_count
    assert left.total_pages == right.total_pages
    assert left.percentile_source == right.percentile_source
    if right.query_count:
        assert left.avg_response_time == right.avg_response_time
        assert left.avg_queue_delay == right.avg_queue_delay
        assert left.avg_total_delay == right.avg_total_delay
        assert left.max_response_time == right.max_response_time
        assert left.max_queue_delay == right.max_queue_delay
        for p in (0, 10, 25, 50, 95, 99, 100):
            assert left.response_time_percentile(p) == \
                right.response_time_percentile(p)
            assert left.queue_delay_percentile(p) == \
                right.queue_delay_percentile(p)
            assert left.total_delay_percentile(p) == \
                right.total_delay_percentile(p)


@given(_records(max_size=30), st.randoms(use_true_random=False),
       st.integers(1, 8))
@QUICK
def test_collapsed_sketches_stay_order_invariant(records, rng, threshold):
    """Exact or collapsed past the threshold, every aggregate is a pure
    function of the recorded multiset: a permutation of the records
    gives identical sums, maxima, percentiles and percentile_source."""
    shuffled = list(records)
    rng.shuffle(shuffled)
    forward = _recorded(records, exact_percentile_threshold=threshold)
    permuted = _recorded(shuffled, exact_percentile_threshold=threshold)
    _assert_aggregates_identical(permuted, forward)
    if records:
        assert permuted.per_stream() == forward.per_stream()


@given(_records(max_size=30), st.integers(1, 64))
@QUICK
def test_bounded_retention_reports_full_aggregates(records, threshold):
    """Bounded retention keeps no record yet reports the same
    aggregates as full retention."""
    full = _recorded(records, exact_percentile_threshold=threshold)
    bounded = _recorded(
        records, retention="bounded", exact_percentile_threshold=threshold
    )
    assert bounded.retention == "bounded"
    assert bounded.records_retained == 0
    assert full.records_retained == len(records)
    _assert_aggregates_identical(bounded, full)
