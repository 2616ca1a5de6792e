"""Property tests: the count spreader gives the same counts in blocks.

The work expander spreads a plan's expected hits and hit granules over
its selected fragments one block at a time, each block starting at its
own position (``_spread_count_array(rate, n, start)``).  For any rate,
length and cut points, the blocks must concatenate to the whole-plan
array and to the scalar :class:`_Spreader` sequence — including the
``total / n`` rates whose products land an ulp under the integer total
at ``n`` (``TestSpreaderExactTotals``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.database import _Spreader, _spread_count_array
from tests.properties.strategies import (
    QUICK,
    STANDARD,
    block_cuts,
    spread_rates,
)
from tests.sim import test_clustered_fastpath

DRIFT_CASES = test_clustered_fastpath.TestSpreaderExactTotals.DRIFT_CASES


def _blocked(rate: float, cuts: list[int]) -> list[int]:
    return np.concatenate(
        [
            _spread_count_array(rate, hi - lo, lo)
            for lo, hi in zip(cuts, cuts[1:])
        ]
    ).tolist()


@STANDARD
@given(spread_rates, st.integers(min_value=0, max_value=2_000), st.data())
def test_blocks_concatenate_to_the_whole_sequence(rate, n, data):
    cuts = data.draw(block_cuts(n))
    blocked = _blocked(rate, cuts)
    assert blocked == _spread_count_array(rate, n).tolist()
    spreader = _Spreader(rate)
    assert blocked == [spreader.next() for _ in range(n)]


@QUICK
@given(st.sampled_from(DRIFT_CASES), st.data())
def test_blocks_keep_exact_totals_at_guard_rates(case, data):
    """The last block ends on the count where the product lands an ulp
    under the total; blocks must still sum to it exactly."""
    total, n = case
    rate = total / n
    cuts = data.draw(block_cuts(n))
    blocked = _blocked(rate, cuts)
    whole = _spread_count_array(rate, n).tolist()
    assert blocked == whole
    assert sum(blocked) == total
    # The scalar spreader over the tail, resumed where the telescoped
    # running sum puts it (iterating ~10^5 draws per example would
    # dominate the suite).
    start = n - 1_000
    spreader = _Spreader(rate)
    spreader._count = start
    spreader._emitted = sum(whole[:start])
    assert blocked[start:] == [spreader.next() for _ in range(n - start)]
