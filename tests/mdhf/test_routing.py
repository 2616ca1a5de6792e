"""Fragment routing: the worked examples of Sections 4.2 and 4.5."""

import pytest

from repro.mdhf.fragments import FragmentGeometry
from repro.mdhf.query import Predicate, StarQuery
from repro.mdhf.routing import plan_query
from repro.mdhf.spec import Fragmentation


def q(*preds, name=""):
    return StarQuery([Predicate.parse(t, *vs) for t, *vs in preds], name=name)


class TestFragmentCounts:
    """Every fragment count quoted in the paper for F_MonthGroup."""

    def test_exact_match_one_fragment(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("time::month", 0), ("product::group", 1)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 1

    def test_1group_24_fragments(self, apb1, f_month_group, apb1_catalog):
        # "if we want to aggregate all facts for one product GROUP -
        # over all 24 months - we have to process 24 fragments"
        plan = plan_query(q(("product::group", 1)), f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 24

    def test_1code1month_one_fragment(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("product::code", 33), ("time::month", 0)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 1

    def test_1code_24_fragments(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("product::code", 33)), f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 24

    def test_group_quarter_3_fragments(self, apb1, f_month_group, apb1_catalog):
        # "to aggregate a product GROUP over a QUARTER we have to access
        # three fragments"
        plan = plan_query(q(("product::group", 1), ("time::quarter", 2)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 3

    def test_1quarter_1440_fragments(self, apb1, f_month_group, apb1_catalog):
        # "for one QUARTER - over all product GROUPs - we have to process
        # 480*3 fragments (one eighth of all fragments)"
        plan = plan_query(q(("time::quarter", 2)), f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 480 * 3
        assert plan.fragment_count * 8 == 11_520

    def test_1code1quarter_3_fragments(self, apb1, f_month_group, apb1_catalog):
        # Q4 example: "restricted to 3 fragments because 1 product CODE
        # and 3 MONTHs are involved"
        plan = plan_query(q(("product::code", 33), ("time::quarter", 2)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 3

    def test_1store_all_fragments(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("customer::store", 7)), f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 11_520


class TestBitmapRequirements:
    def test_no_bitmaps_for_absorbed_attributes(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("time::month", 0), ("product::group", 1)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.bitmap_requirements == ()
        assert plan.all_rows_relevant

    def test_no_bitmaps_for_higher_levels(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("time::quarter", 1), ("product::division", 0)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.all_rows_relevant

    def test_store_needs_full_customer_index(self, apb1, f_month_group, apb1_catalog):
        # 1STORE reads all 12 encoded customer bitmaps per fragment.
        plan = plan_query(q(("customer::store", 7)), f_month_group, apb1, apb1_catalog)
        assert plan.bitmaps_per_fragment == 12

    def test_code_below_group_needs_5_bitmaps(self, apb1, f_month_group, apb1_catalog):
        # Fragment implies the 10-bit group prefix; class+code bits remain.
        plan = plan_query(q(("product::code", 33), ("time::month", 0)),
                          f_month_group, apb1, apb1_catalog)
        (req,) = plan.bitmap_requirements
        assert req.bitmaps_per_fragment == 5
        assert req.implied_level == "group"

    def test_simple_index_one_bitmap_per_value(self, apb1, apb1_catalog):
        frag = Fragmentation.parse("product::group")
        plan = plan_query(q(("time::month", 0, 1, 2)), frag, apb1, apb1_catalog)
        (req,) = plan.bitmap_requirements
        assert req.bitmaps_per_fragment == 3

    def test_encoded_index_shared_bitmaps_for_in_list(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("customer::store", 7, 8)), f_month_group, apb1, apb1_catalog)
        (req,) = plan.bitmap_requirements
        assert req.bitmaps_per_fragment == 12  # same 12 physical bitmaps


class TestMultiValueRouting:
    def test_in_list_unions_fragments(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("time::month", 0, 6)), f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 2 * 480

    def test_values_in_same_parent_collapse(self, apb1, f_month_group, apb1_catalog):
        # Codes 0 and 1 are both in group 0: one axis value.
        plan = plan_query(q(("product::code", 0, 1), ("time::month", 0)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.fragment_count == 1


class TestPlanGeometry:
    def test_iter_fragment_ids_in_allocation_order(self, apb1, f_month_group, apb1_catalog):
        geometry = FragmentGeometry(apb1, f_month_group)
        plan = plan_query(q(("product::group", 2), ("time::quarter", 0)),
                          f_month_group, apb1, apb1_catalog)
        ids = list(plan.iter_fragment_ids(geometry))
        assert ids == [2, 482, 962]  # months 0..2, group 2
        assert ids == sorted(ids)

    def test_geometry_mismatch_rejected(self, apb1, f_month_group, f_store, apb1_catalog):
        geometry = FragmentGeometry(apb1, f_store)
        plan = plan_query(q(("time::month", 0)), f_month_group, apb1, apb1_catalog)
        with pytest.raises(ValueError, match="different fragmentation"):
            list(plan.iter_fragment_ids(geometry))
        with pytest.raises(ValueError, match="different fragmentation"):
            plan.fragment_ids(geometry)

    def test_fragment_ids_by_position(self, apb1, f_month_group, apb1_catalog):
        geometry = FragmentGeometry(apb1, f_month_group)
        plan = plan_query(q(("product::group", 2, 3), ("time::quarter", 0)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.fragment_ids(geometry).tolist() == [
            2, 3, 482, 483, 962, 963
        ]
        # Positions 1:3 straddle the carry from month 0 to month 1.
        assert plan.fragment_ids(geometry, 1, 3).tolist() == [3, 482]
        assert plan.fragment_ids(geometry, 4, 4).tolist() == []
        for lo, hi in [(-1, 2), (3, 2), (0, 7)]:
            with pytest.raises(ValueError, match="outside"):
                plan.fragment_ids(geometry, lo, hi)

    def test_hits_per_fragment(self, apb1, f_month_group, apb1_catalog):
        plan = plan_query(q(("customer::store", 7)), f_month_group, apb1, apb1_catalog)
        assert plan.hits_per_fragment == pytest.approx(1_296_000 / 11_520)

    def test_1code1quarter_total_hits(self, apb1, f_month_group, apb1_catalog):
        # Section 6.3: "It has to process only 16,200 rows in total."
        plan = plan_query(q(("product::code", 33), ("time::quarter", 2)),
                          f_month_group, apb1, apb1_catalog)
        assert plan.expected_hits == pytest.approx(16_200, rel=1e-9)
