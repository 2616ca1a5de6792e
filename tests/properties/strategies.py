"""Shared Hypothesis strategies and tiered settings profiles.

Tiers (example counts, before the CI cap):

- ``DETERMINISM`` — 500 examples: hash/fingerprint determinism tests.
- ``STATE_MACHINE`` — 200 examples: stateful tests (the engine
  equivalence harness); this is the "deep tier" the nightly runs.
- ``STANDARD`` — 100 examples: regular property tests.
- ``QUICK`` — 20 examples: fast validation tests.

CI caps every tier via the ``HYPOTHESIS_MAX_EXAMPLES`` environment
variable (tier-1 sets it to 20 so property tests stay seconds-cheap on
every PR; the nightly tier-2 workflow leaves it unset to get the full
deep tiers).  A cap only ever lowers a tier's example count, never
raises it.
"""

from __future__ import annotations

import math
import os

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

_cap = os.environ.get("HYPOTHESIS_MAX_EXAMPLES", "").strip()
_CAP: int | None = int(_cap) if _cap else None


def _tier(max_examples: int, **kwargs) -> settings:
    if _CAP is not None:
        max_examples = min(max_examples, _CAP)
    # Property runtimes vary wildly across CI machines; tiers bound
    # work by example count, not per-example wall clock.
    kwargs.setdefault("deadline", None)
    return settings(max_examples=max_examples, **kwargs)


DETERMINISM = _tier(500)
STATE_MACHINE = _tier(
    200,
    suppress_health_check=[HealthCheck.too_slow],
)
STANDARD = _tier(100)
QUICK = _tier(20)


# -- engine-timeline strategies ---------------------------------------------

#: Delays for timeouts.  Heavily weighted toward a small set of exact
#: values so same-instant ties (several events at one simulation time)
#: and zero-delay chains occur constantly; the float tail keeps
#: arbitrary finite delays in play.  The ``nextafter`` pair sits one
#: ulp either side of 1.0, so distinct times that differ in the last
#: bit must still dispatch in time order, and the huge values put
#: entries far beyond everything else on the schedule (``1e19`` also
#: leaves later offsets below one ulp of ``now``, so they round onto
#: the current instant).
delays = st.one_of(
    st.sampled_from(
        [
            0.0,
            0.0,
            0.5,
            0.5,
            1.0,
            1.5,
            math.nextafter(1.0, 0.0),
            math.nextafter(1.0, 2.0),
            1e3,
            1e19,
        ]
    ),
    st.floats(
        min_value=0.0,
        max_value=16.0,
        allow_nan=False,
        allow_infinity=False,
    ),
)

#: Values carried by events/timeouts: small, hashable, comparable.
event_values = st.integers(min_value=0, max_value=99)

#: Horizon offsets for ``run(until=now + offset)``; negative offsets
#: deliberately produce horizons in the past (the clock-regression
#: regression surface).
horizon_offsets = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
    st.floats(
        min_value=-4.0,
        max_value=20.0,
        allow_nan=False,
        allow_infinity=False,
    ),
)

#: One step of a simulation-process body, interpreted by the
#: equivalence harness.  Event references are raw integers resolved
#: modulo the number of live event pairs at spawn time.
process_steps = st.one_of(
    st.tuples(st.just("timeout"), delays, event_values),
    st.tuples(st.just("timeout_at"), delays, event_values),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=255)),
    st.tuples(
        st.just("succeed"),
        st.integers(min_value=0, max_value=255),
        event_values,
    ),
    st.tuples(
        st.just("join"),
        st.lists(st.integers(min_value=0, max_value=255), max_size=3),
    ),
    st.tuples(
        st.just("buffer"),
        st.integers(min_value=0, max_value=1),   # disk
        st.integers(min_value=0, max_value=5),   # start page
        st.integers(min_value=1, max_value=3),   # pages
    ),
    st.tuples(st.just("admission"), delays),
    st.tuples(
        st.just("spawn"),
        st.lists(delays, max_size=2),
        st.booleans(),                           # wait for the child?
    ),
)

#: A whole process body recipe.
process_recipes = st.lists(process_steps, max_size=5)


# -- server-request scripts ---------------------------------------------------

#: Instruction counts of a CPU burst; zeros make zero-duration bursts,
#: repeats make same-instant completion ties.
burst_instructions = st.one_of(
    st.sampled_from([0, 0, 1_000, 1_000, 50_000]),
    st.integers(min_value=0, max_value=200_000),
)

#: One ``(start_page, pages)`` extent of a disk read.
read_extents = st.tuples(
    st.integers(min_value=0, max_value=4_000),
    st.integers(min_value=1, max_value=4),
)

#: One disk request: a single read or a fused batch of reads, on one of
#: two disks.
disk_requests = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 1), read_extents),
    st.tuples(
        st.just("batch"),
        st.integers(0, 1),
        st.lists(read_extents, min_size=2, max_size=3),
    ),
)

#: One step of a server-request script: a CPU burst on one of two
#: nodes, a disk request, a network hop (``delays`` supplies zero-delay
#: hops and same-instant ties) or a parallel join over disk requests,
#: whose disks may repeat.
request_steps = st.one_of(
    st.tuples(st.just("cpu"), st.integers(0, 1), burst_instructions),
    disk_requests,
    st.tuples(st.just("hop"), delays),
    st.tuples(st.just("join"), st.lists(disk_requests, min_size=1, max_size=3)),
)

#: Several processes' scripts, all started at time zero.
request_scripts = st.lists(
    st.lists(request_steps, max_size=6), min_size=1, max_size=4
)


# -- count-spreader strategies ----------------------------------------------

#: Rates for the count spreader: arbitrary finite rates, rates weighted
#: toward exact and near-integer values, and ``total / n`` quotients,
#: whose products at multiples of ``n`` land within ulps of an integer —
#: the cases the spreader's epsilon guard exists for.
spread_rates = st.one_of(
    st.sampled_from([0.0, 0.4, 1.0, 7.25, 112.5, 3.999999, 18_474.0000001]),
    st.floats(
        min_value=0.0,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    st.builds(
        lambda total, n: total / n,
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=10**6),
    ),
)


@st.composite
def block_cuts(draw, n: int) -> list[int]:
    """Sorted cut points ``[0, ..., n]`` that split ``range(n)`` into
    blocks; repeated points give empty blocks."""
    inner = draw(
        st.lists(st.integers(min_value=0, max_value=n), max_size=8)
    )
    return [0, *sorted(inner), n]
