"""The Section 4.7 guideline tool."""

import math
import random
import re

import pytest

from repro.advisor.advisor import AdvisorConfig, recommend_fragmentation
from repro.mdhf.spec import Fragmentation
from repro.workload.queries import query_type


def mix(schema, *names, seed=1):
    rng = random.Random(seed)
    return [query_type(n).instantiate(schema, rng) for n in names]


class TestThresholdFiltering:
    def test_min_bitmap_pages_excludes_fine_fragmentations(self, apb1):
        queries = mix(apb1, "1MONTH1GROUP")
        report = recommend_fragmentation(
            apb1, queries, AdvisorConfig(min_bitmap_fragment_pages=4.0)
        )
        month_code = Fragmentation.parse("time::month", "product::code")
        fragmentations = [c.fragmentation for c in report.candidates]
        assert month_code not in fragmentations

    def test_min_fragments_for_disks(self, apb1):
        queries = mix(apb1, "1MONTH1GROUP")
        report = recommend_fragmentation(
            apb1, queries, AdvisorConfig(min_fragments=100)
        )
        assert all(c.fragment_count >= 100 for c in report.candidates)

    def test_max_fragments_threshold(self, apb1):
        queries = mix(apb1, "1MONTH1GROUP")
        report = recommend_fragmentation(
            apb1, queries, AdvisorConfig(max_fragments=5_000)
        )
        assert all(c.fragment_count <= 5_000 for c in report.candidates)

    def test_max_bitmaps_threshold(self, apb1):
        queries = mix(apb1, "1MONTH1GROUP", "1STORE")
        report = recommend_fragmentation(
            apb1, queries, AdvisorConfig(max_bitmaps=40, restrict_to_query_dimensions=False)
        )
        assert all(c.kept_bitmaps <= 40 for c in report.candidates)

    def test_dimension_restriction(self, apb1):
        queries = mix(apb1, "1MONTH1GROUP")
        report = recommend_fragmentation(apb1, queries)
        for candidate in report.candidates:
            assert candidate.fragmentation.dimensions() <= {"time", "product"}


class TestRanking:
    def test_recommends_month_group_for_paper_mix(self, apb1):
        # For a month/group/code-centric profile with >= 1 fragment per
        # disk, the advisor picks the paper's F_MonthGroup.
        queries = mix(apb1, "1MONTH1GROUP", "1CODE", "1MONTH")
        report = recommend_fragmentation(
            apb1, queries, AdvisorConfig(min_fragments=100)
        )
        assert report.best.fragmentation == Fragmentation.parse(
            "product::group", "time::month"
        ).reordered(["product", "time"])

    def test_optimal_for_single_query_type(self, apb1):
        # A pure 1STORE profile favours a customer fragmentation.
        queries = mix(apb1, "1STORE")
        report = recommend_fragmentation(apb1, queries, AdvisorConfig())
        assert report.best.fragmentation.dimensions() == {"customer"}

    def test_weights_shift_recommendation(self, apb1):
        month = mix(apb1, "1MONTH")[0]
        store = mix(apb1, "1STORE")[0]
        config = AdvisorConfig(restrict_to_query_dimensions=False)
        favour_store = recommend_fragmentation(
            apb1, [(month, 0.01), (store, 100.0)], config
        )
        assert "customer" in favour_store.best.fragmentation.dimensions()

    def test_ranking_is_sorted(self, apb1):
        queries = mix(apb1, "1MONTH1GROUP", "1STORE")
        report = recommend_fragmentation(
            apb1, queries, AdvisorConfig(restrict_to_query_dimensions=False)
        )
        costs = [c.weighted_io_pages for c in report.candidates]
        assert costs == sorted(costs)

    def test_report_statistics(self, apb1):
        queries = mix(apb1, "1MONTH1GROUP")
        report = recommend_fragmentation(apb1, queries)
        assert report.options_after_thresholds <= report.options_total
        assert len(report.candidates) == report.options_after_thresholds


class TestValidation:
    def test_empty_mix_rejected(self, apb1):
        with pytest.raises(ValueError):
            recommend_fragmentation(apb1, [])

    def test_negative_weight_rejected(self, apb1):
        query = mix(apb1, "1MONTH")[0]
        with pytest.raises(ValueError):
            recommend_fragmentation(apb1, [(query, -1.0)])

    def test_no_survivors_best_raises(self, apb1):
        query = mix(apb1, "1MONTH")[0]
        report = recommend_fragmentation(
            apb1, [query], AdvisorConfig(min_bitmap_fragment_pages=1e12)
        )
        assert report.candidates == ()
        with pytest.raises(ValueError):
            report.best


class TestConfigValidation:
    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("page_size", 0, "page_size must be >= 1, got 0"),
            (
                "min_bitmap_fragment_pages", -2.0,
                "min_bitmap_fragment_pages must be finite and "
                "non-negative, got -2.0",
            ),
            ("min_bitmap_fragment_pages", math.nan, "got nan"),
            ("min_bitmap_fragment_pages", math.inf, "got inf"),
            ("max_fragments", 0, "max_fragments must be >= 1, got 0"),
            ("max_bitmaps", -1, "max_bitmaps must be >= 1, got -1"),
            ("min_fragments", -5, "min_fragments must be >= 1, got -5"),
        ],
    )
    def test_bad_threshold_rejected_by_name(self, knob, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AdvisorConfig(**{knob: value})

    def test_boundary_values_accepted(self):
        config = AdvisorConfig(
            page_size=1,
            min_bitmap_fragment_pages=0.0,
            max_fragments=1,
            max_bitmaps=1,
            min_fragments=1,
        )
        assert config.min_fragments == 1
