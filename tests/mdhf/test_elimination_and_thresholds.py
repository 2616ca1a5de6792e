"""Bitmap elimination (Section 4.2) and thresholds/Table 2 (Section 4.4)."""

import math
import re

import pytest

from repro.bitmap.catalog import IndexCatalog
from repro.mdhf.elimination import eliminate_bitmaps
from repro.mdhf.spec import Fragmentation
from repro.mdhf.thresholds import (
    enumerate_fragmentations,
    max_fragment_threshold,
    option_counts_by_dimensionality,
)


class TestElimination:
    def test_month_group_keeps_32(self, apb1, apb1_catalog, f_month_group):
        # "Compared to the maximum of 76 bitmaps, for F_MonthGroup at
        # most 32 bitmaps are thus to be maintained."
        result = eliminate_bitmaps(apb1_catalog, f_month_group)
        assert result.total_kept == 32
        assert result.total_eliminated == 44

    def test_month_eliminates_all_time_bitmaps(self, apb1, apb1_catalog, f_month_group):
        result = eliminate_bitmaps(apb1_catalog, f_month_group)
        assert result.kept["time"] == 0
        assert result.eliminated["time"] == 34

    def test_group_saves_10_product_bitmaps(self, apb1, apb1_catalog, f_month_group):
        # "we do not need bitmaps for product GROUP and higher levels,
        # thus saving 10 bitmaps"
        result = eliminate_bitmaps(apb1_catalog, f_month_group)
        assert result.eliminated["product"] == 10
        assert result.kept["product"] == 5

    def test_uncovered_dimensions_keep_everything(self, apb1, apb1_catalog, f_month_group):
        result = eliminate_bitmaps(apb1_catalog, f_month_group)
        assert result.kept["customer"] == 12
        assert result.kept["channel"] == 15

    def test_leaf_fragmentation_eliminates_whole_encoded_index(self, apb1, apb1_catalog):
        result = eliminate_bitmaps(
            apb1_catalog, Fragmentation.parse("product::code")
        )
        assert result.kept["product"] == 0

    def test_simple_index_higher_levels_only(self, apb1, apb1_catalog):
        result = eliminate_bitmaps(
            apb1_catalog, Fragmentation.parse("time::quarter")
        )
        # year (2) + quarter (8) eliminated, month (24) kept.
        assert result.eliminated["time"] == 10
        assert result.kept["time"] == 24

    def test_finest_fragmentation_eliminates_all(self, apb1, apb1_catalog):
        frag = Fragmentation.parse(
            "time::month", "product::code", "customer::store", "channel::channel"
        )
        result = eliminate_bitmaps(apb1_catalog, frag)
        assert result.total_kept == 0
        assert result.total_eliminated == 76


class TestThresholds:
    def test_nmax_formula(self, apb1):
        # n_max = N / (8 * PgSize * PrefetchGran) = 14,238
        assert max_fragment_threshold(apb1.fact_count, 4096, 4) == 14_238

    def test_nmax_input_validation(self):
        with pytest.raises(ValueError):
            max_fragment_threshold(100, 0, 4)

    def test_finest_fragmentation_exceeds_tuples(self, apb1):
        # "The finest possible fragmentation ... would result in more
        # fact fragments (7.5 billion) than fact tuples."
        finest = Fragmentation.parse(
            "time::month", "product::code", "customer::store", "channel::channel"
        )
        assert finest.fragment_count(apb1) == 7_464_960_000
        assert finest.fragment_count(apb1) > apb1.fact_count * 0.25 * 4 * 0.999

    def test_quarter_group_retailer_channel_9m(self, apb1):
        # "reduces the number of fact fragments to about 9 million"
        frag = Fragmentation.parse(
            "time::quarter", "product::group", "customer::retailer",
            "channel::channel",
        )
        n = frag.fragment_count(apb1)
        assert n == 8 * 480 * 144 * 15
        assert math.isclose(n, 8_294_400)


class TestTable2:
    """Fragmentation option counts under size constraints."""

    def test_unconstrained_counts(self, apb1):
        counts = option_counts_by_dimensionality(apb1)
        assert counts == {1: 12, 2: 47, 3: 72, 4: 36}
        assert sum(counts.values()) == 167

    def test_one_page_constraint(self, apb1):
        counts = option_counts_by_dimensionality(apb1, min_bitmap_pages=1)
        # Exactly one 4-dimensional option survives (paper: 1).
        assert counts.get(4, 0) == 1
        # 1- and 2-dimensional rows match the paper exactly (12, 37).
        assert counts[1] == 12
        assert counts[2] == 37

    def test_eight_page_constraint(self, apb1):
        counts = option_counts_by_dimensionality(apb1, min_bitmap_pages=8)
        assert counts[1] == 11  # product::code drops out
        assert counts.get(4, 0) == 0
        assert counts.get(3, 0) == 9  # matches the paper's 9

    def test_surviving_4dim_option(self, apb1):
        options = [
            o
            for o in enumerate_fragmentations(apb1, min_bitmap_pages=1)
            if o.dimensionality == 4
        ]
        (option,) = options
        # The coarsest level of every dimension.
        levels = {a.dimension: a.level for a in option.fragmentation}
        assert levels == {
            "product": "division",
            "customer": "retailer",
            "time": "year",
            "channel": "channel",
        }

    def test_max_fragments_filter(self, apb1):
        options = list(
            enumerate_fragmentations(apb1, max_fragments=14_238)
        )
        assert all(o.fragment_count <= 14_238 for o in options)
        # F_MonthGroup (11,520 fragments) survives.
        assert any(
            o.fragment_count == 11_520 and o.dimensionality == 2
            for o in options
        )

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("page_size", 0, "page_size must be >= 1, got 0"),
            (
                "min_bitmap_pages", -1.0,
                "min_bitmap_pages must be finite and non-negative, got -1.0",
            ),
            ("min_bitmap_pages", math.nan, "min_bitmap_pages"),
            ("min_bitmap_pages", math.inf, "min_bitmap_pages"),
            ("max_fragments", -5, "max_fragments must be >= 1, got -5"),
        ],
    )
    def test_bad_threshold_rejected_at_the_call(
        self, apb1, knob, value, message
    ):
        # Raised by the call itself, before any next(): a generator
        # would defer the check to the first iteration.
        with pytest.raises(ValueError, match=re.escape(message)):
            enumerate_fragmentations(apb1, **{knob: value})

    def test_dimension_restriction(self, apb1):
        options = list(
            enumerate_fragmentations(apb1, dimensions=["time", "product"])
        )
        # (3+1) * (6+1) - 1 = 27 options over two dimensions.
        assert len(options) == 27

    def test_monotone_in_constraint(self, apb1):
        previous = 167
        for min_pages in (1, 4, 8, 16):
            total = sum(
                option_counts_by_dimensionality(
                    apb1, min_bitmap_pages=min_pages
                ).values()
            )
            assert total <= previous
            previous = total
