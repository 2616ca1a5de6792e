"""Block-wise work expansion is invisible in the units it yields.

``SimulatedDatabase.iter_subquery_work`` expands the selected fragments
in blocks of ``_EXPAND_BLOCK`` (cut only between clusters), decoding
each block's fragment ids from their positions, so that one block's
rows are alive at a time.  Shrinking the block to one, three or
64 fragments must not change a single field of a single unit: the
units equal the default expansion and the per-fragment reference of
``test_clustered_fastpath``, and equal layouts still share one batch
list across blocks.
"""

import random
from functools import partial

import numpy as np
import pytest

from repro.sim import database as database_module
from repro.sim.database import _expansion_blocks
from repro.workload.queries import query_type
from tests.sim.test_clustered_fastpath import (
    _assert_matches_reference,
    _reference_database,
)

MONTH_GROUP = ("time::month", "product::group")
STORE_MONTH_GROUP = ("customer::store", "time::month", "product::group")
RETAILER_CHANNEL = ("customer::retailer", "channel::channel")
MULTI_PAGE_BITMAPS = {"page_size": 512, "prefetch_bitmap_pages": 1}

#: (id, fragmentation, density, query, database overrides, whether
#: equal layouts recur so the expansion must share batch lists).
CASES = [
    ("uniform", MONTH_GROUP, 1.0, "1STORE", {}, True),
    ("uniform_no_bitmaps", MONTH_GROUP, 1.0, "1QUARTER", {}, True),
    # 0.5 expected hits per fragment: relevant rows alternate 0 and 1.
    ("uniform_fractional_rows", STORE_MONTH_GROUP, 0.25, "1CODE", {}, True),
    ("skewed", MONTH_GROUP, 1.0, "1CODE", {"data_skew": 0.5}, True),
    (
        "skewed_empty_fragments", STORE_MONTH_GROUP, 0.25, "1CODE",
        {"data_skew": 1.0}, True,
    ),
    ("clustered", MONTH_GROUP, 1.0, "1STORE", {"cluster_factor": 3}, True),
    (
        "clustered_partial_no_bitmaps", STORE_MONTH_GROUP, 0.25, "1QUARTER",
        {"cluster_factor": 32}, True,
    ),
    (
        "clustered_partial", STORE_MONTH_GROUP, 0.25, "1CODE",
        {"cluster_factor": 32}, True,
    ),
    (
        "multi_page_bitmaps", RETAILER_CHANNEL, 1.0, "1MONTH1GROUP",
        {"buffer": MULTI_PAGE_BITMAPS}, True,
    ),
    (
        "multi_page_bitmaps_clustered", RETAILER_CHANNEL, 1.0,
        "1MONTH1GROUP", {"buffer": MULTI_PAGE_BITMAPS, "cluster_factor": 2},
        True,
    ),
    (
        "multi_page_bitmaps_skewed", RETAILER_CHANNEL, 1.0, "1MONTH1GROUP",
        {"buffer": MULTI_PAGE_BITMAPS, "data_skew": 0.5}, False,
    ),
]

BLOCKS = [1, 3, 64]


def _case(fragmentation, density, query_name, overrides):
    schema, database = _reference_database(
        fragmentation, density, **overrides
    )
    query = query_type(query_name).instantiate(schema, random.Random(0))
    return database, database.plan(query)


@pytest.mark.parametrize(
    "fragmentation,density,query_name,overrides,sharing",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
@pytest.mark.parametrize("block", BLOCKS)
def test_units_independent_of_block_size(
    monkeypatch, block, fragmentation, density, query_name, overrides,
    sharing,
):
    database, plan = _case(fragmentation, density, query_name, overrides)
    default = list(database.iter_subquery_work(plan))
    monkeypatch.setattr(database_module, "_EXPAND_BLOCK", block)
    blocked = list(database.iter_subquery_work(plan))
    assert blocked == default
    _assert_matches_reference(database, plan, expect_sharing=sharing)


def test_cases_cover_the_block_edges(monkeypatch):
    """The cases above do exercise what the blocks could break: more
    than one block, clusters cut back at a nominal block edge, partly
    selected clusters, and both zero and multi-page bitmap reads."""
    by_id = {case[0]: case[1:5] for case in CASES}
    cut_back = False
    for case_id in ("clustered", "clustered_partial_no_bitmaps"):
        database, plan = _case(*by_id[case_id])
        fragment_ids = partial(plan.fragment_ids, database.geometry)
        cluster_factor = database.params.cluster_factor
        for block in BLOCKS:
            step = max(block, cluster_factor)
            monkeypatch.setattr(database_module, "_EXPAND_BLOCK", block)
            ranges = list(
                _expansion_blocks(
                    plan.fragment_count, fragment_ids, cluster_factor
                )
            )
            assert len(ranges) > 1
            cut_back |= any(hi - lo < step for lo, hi in ranges[:-1])
    assert cut_back

    database, plan = _case(*by_id["clustered_partial"])
    works = list(database.iter_subquery_work(plan))
    assert plan.bitmaps_per_fragment
    assert any(work.fragment_count < 32 for work in works)

    database, plan = _case(*by_id["uniform_no_bitmaps"])
    assert plan.bitmaps_per_fragment == 0

    database, plan = _case(*by_id["multi_page_bitmaps"])
    works = list(database.iter_subquery_work(plan))
    assert max(len(work.bitmap_extents) for work in works) == 2


@pytest.mark.parametrize("block", [1, 2, 5, 64])
@pytest.mark.parametrize("cluster_factor", [1, 3, 8])
def test_blocks_tile_positions_and_keep_clusters_whole(
    monkeypatch, block, cluster_factor
):
    # Random sorted selections with gaps, so clusters are partly
    # selected and of uneven length.
    rng = np.random.default_rng(block * 10 + cluster_factor)
    ids = np.flatnonzero(rng.random(400) < 0.6).astype(np.int64)
    reads = []

    def fragment_ids(lo, hi):
        reads.append(hi - lo)
        return ids[lo:hi]

    monkeypatch.setattr(database_module, "_EXPAND_BLOCK", block)
    ranges = list(_expansion_blocks(ids.size, fragment_ids, cluster_factor))
    # A cut reads only the ids around it, never a whole block.
    assert all(read == cluster_factor + 1 for read in reads)
    assert len(reads) == (len(ranges) - 1 if cluster_factor > 1 else 0)
    assert ranges[0][0] == 0 and ranges[-1][1] == ids.size
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    step = max(block, cluster_factor)
    for lo, hi in ranges:
        assert 0 < hi - lo <= step
        if hi < ids.size:
            assert ids[hi - 1] // cluster_factor != ids[hi] // cluster_factor
