"""Arrival processes: determinism, offered load, burst structure."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.workload.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    derive_rng,
    think_time_draw,
)


class TestDeriveRng:
    def test_same_salt_same_stream(self):
        a = derive_rng(7, "coord", 3, 1)
        b = derive_rng(7, "coord", 3, 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_salt_different_stream(self):
        a = derive_rng(7, "coord", 3, 1)
        b = derive_rng(7, "coord", 3, 2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_independent_of_draw_order(self):
        # Deriving B after exhausting A must not change B's stream —
        # the property the shared-RNG multi-user mode violated.
        first = derive_rng(0, "x").random()
        a = derive_rng(0, "y")
        for _ in range(100):
            a.random()
        assert derive_rng(0, "x").random() == first


class TestArrivalProcess:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_deterministic_under_fixed_seed(self, kind):
        process = ArrivalProcess(kind=kind, rate_qps=2.0, burst_size=3)
        assert process.interarrivals(50, seed=4) == process.interarrivals(
            50, seed=4
        )
        if kind != "fixed":  # fixed-rate gaps are seed-independent
            assert process.interarrivals(50, seed=4) != process.interarrivals(
                50, seed=5
            )

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_offered_load_matches_rate(self, kind):
        process = ArrivalProcess(kind=kind, rate_qps=4.0, burst_size=5)
        gaps = process.interarrivals(4000, seed=0)
        assert statistics.fmean(gaps) == pytest.approx(0.25, rel=0.1)

    def test_fixed_is_exactly_periodic(self):
        process = ArrivalProcess(kind="fixed", rate_qps=2.0)
        assert process.interarrivals(4, seed=9) == [0.5] * 4
        assert process.arrival_times(3, seed=9) == pytest.approx(
            [0.5, 1.0, 1.5]
        )

    def test_poisson_gaps_are_all_positive_and_varied(self):
        gaps = ArrivalProcess(kind="poisson", rate_qps=1.0).interarrivals(
            100, seed=1
        )
        assert all(gap > 0 for gap in gaps)
        assert len(set(gaps)) == len(gaps)

    def test_bursty_batches_share_an_instant(self):
        process = ArrivalProcess(kind="bursty", rate_qps=1.0, burst_size=4)
        gaps = process.interarrivals(12, seed=2)
        # Batches of 4: one positive batch gap then three zero gaps.
        for batch_start in range(0, 12, 4):
            assert gaps[batch_start] > 0
            assert gaps[batch_start + 1 : batch_start + 4] == [0.0] * 3

    def test_bursty_partial_tail_batch(self):
        process = ArrivalProcess(kind="bursty", rate_qps=1.0, burst_size=5)
        gaps = process.interarrivals(7, seed=2)
        assert len(gaps) == 7
        assert gaps[5] > 0  # second batch starts after a positive gap

    def test_arrival_times_are_cumulative(self):
        process = ArrivalProcess(kind="poisson", rate_qps=1.0)
        gaps = process.interarrivals(10, seed=3)
        times = process.arrival_times(10, seed=3)
        assert times == pytest.approx(
            [sum(gaps[: i + 1]) for i in range(10)]
        )
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ArrivalProcess(kind="lumpy")
        with pytest.raises(ValueError, match="rate_qps"):
            ArrivalProcess(rate_qps=0.0)
        with pytest.raises(ValueError, match="burst_size"):
            ArrivalProcess(kind="bursty", burst_size=0)
        with pytest.raises(ValueError, match="count"):
            ArrivalProcess().interarrivals(-1, seed=0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # An infinite rate used to run silently with every gap 0.
        with pytest.raises(ValueError, match="rate_qps"):
            ArrivalProcess(rate_qps=rate)


class TestArrivalSlices:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_full_slice_is_the_serial_draw(self, kind):
        process = ArrivalProcess(kind=kind, rate_qps=7.0, burst_size=3)
        gaps = process.interarrivals(20, seed=11)
        pairs = list(process.iter_arrival_slice(20, 11))
        assert [session for session, _ in pairs] == list(range(20))
        assert [delay for _, delay in pairs] == gaps

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_is_enumerated_interarrivals_bit_for_bit(self, kind):
        process = ArrivalProcess(kind=kind, rate_qps=3.5, burst_size=4)
        for count in (0, 1, 7, 23):
            for seed in (0, 5, -3):
                expected = [
                    (session, gap.hex()) for session, gap in
                    enumerate(process.iter_interarrivals(count, seed))
                ]
                actual = [
                    (session, gap.hex()) for session, gap in
                    process.iter_arrival_slice(count, seed)
                ]
                assert actual == expected

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_gap_fold_reconstructs_arrival_times(self, kind):
        # The engine's timeline is the left-to-right ``t = t + gap``
        # fold of the source's gaps; it must equal arrival_times bitwise.
        process = ArrivalProcess(kind=kind, rate_qps=3.5, burst_size=4)
        instants, t = [], 0.0
        for _, gap in process.iter_arrival_slice(23, 5):
            t = t + gap
            instants.append(t)
        assert instants == process.arrival_times(23, seed=5)

    def test_empty_slice_yields_nothing(self):
        process = ArrivalProcess()
        assert list(process.iter_arrival_slice(0, 0)) == []

    def test_slice_bounds_validated(self):
        process = ArrivalProcess()
        with pytest.raises(ValueError, match="count"):
            list(process.iter_arrival_slice(-1, 0))

    @pytest.mark.parametrize("prefix", [1, 5, 22])
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_prefix_is_stable_under_truncation(self, kind, prefix):
        # Drawing fewer sessions must not disturb the gaps: the first
        # ``prefix`` gaps of a 50-session axis are a ``prefix``-session
        # draw, including a bursty batch cut short at the end.
        process = ArrivalProcess(kind=kind, rate_qps=2.0, burst_size=3)
        long_axis = list(process.iter_arrival_slice(50, 9))
        assert list(process.iter_arrival_slice(prefix, 9)) == \
            long_axis[:prefix]


class TestThinkTime:
    def test_zero_mean_is_no_think_time(self):
        assert think_time_draw(derive_rng(0, "t"), 0.0) == 0.0

    def test_mean_matches(self):
        rng = derive_rng(0, "t")
        draws = [think_time_draw(rng, 2.0) for _ in range(4000)]
        assert statistics.fmean(draws) == pytest.approx(2.0, rel=0.1)
        assert all(draw > 0 for draw in draws)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            think_time_draw(derive_rng(0, "t"), -1.0)
