"""Arrival processes: determinism, offered load, burst structure."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.workload.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    derive_rng,
    partition_sessions,
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
    @staticmethod
    def _serial_instants(process, count, seed):
        # The engine's timeline: a left-to-right ``t = t + gap`` fold.
        instants, t = [], 0.0
        for gap in process.iter_interarrivals(count, seed):
            t = t + gap
            instants.append(t)
        return instants

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_full_slice_is_the_serial_draw(self, kind):
        process = ArrivalProcess(kind=kind, rate_qps=7.0, burst_size=3)
        gaps = process.interarrivals(20, seed=11)
        pairs = list(process.iter_arrival_slice(20, 11, 0, 20))
        assert [session for session, _ in pairs] == list(range(20))
        # 0.0 + gaps[0] == gaps[0], so the (0, count) slice is bitwise
        # the serial sequence.
        assert [delay for _, delay in pairs] == gaps

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_slice_union_reconstructs_serial_timeline(self, kind, shards):
        process = ArrivalProcess(kind=kind, rate_qps=3.5, burst_size=4)
        count, seed = 23, 5
        gaps = process.interarrivals(count, seed)
        instants = self._serial_instants(process, count, seed)
        covered = []
        for start, stop in partition_sessions(count, shards):
            pairs = list(
                process.iter_arrival_slice(count, seed, start, stop)
            )
            covered.extend(session for session, _ in pairs)
            # First delay is the absolute serial instant of session
            # ``start``; later delays are the serial gaps, bit for bit.
            assert pairs[0] == (start, instants[start])
            assert [delay for _, delay in pairs[1:]] == \
                gaps[start + 1:stop]
        assert covered == list(range(count))

    def test_empty_slice_yields_nothing(self):
        process = ArrivalProcess()
        assert list(process.iter_arrival_slice(10, 0, 4, 4)) == []

    def test_slice_bounds_validated(self):
        process = ArrivalProcess()
        for start, stop in [(-1, 3), (4, 2), (0, 11), (11, 11)]:
            with pytest.raises(ValueError, match="arrival slice"):
                list(process.iter_arrival_slice(10, 0, start, stop))

    def test_bursty_prefix_is_stable_under_truncation(self):
        # Drawing a prefix of a longer axis must not disturb the gaps:
        # slice (0, 5) of a 50-session axis equals the first 5 serial
        # gaps of that same axis.
        process = ArrivalProcess(kind="bursty", rate_qps=2.0, burst_size=3)
        gaps = process.interarrivals(50, seed=9)
        pairs = list(process.iter_arrival_slice(50, 9, 0, 5))
        assert [delay for _, delay in pairs] == gaps[:5]


class TestPartitionSessions:
    def test_balanced_partition(self):
        assert partition_sessions(10, 3) == ((0, 4), (4, 7), (7, 10))

    def test_single_shard_is_the_full_axis(self):
        assert partition_sessions(17, 1) == ((0, 17),)

    def test_more_shards_than_sessions_yields_empty_tail(self):
        slices = partition_sessions(2, 5)
        assert slices == ((0, 1), (1, 2), (2, 2), (2, 2), (2, 2))

    def test_zero_sessions(self):
        assert partition_sessions(0, 3) == ((0, 0), (0, 0), (0, 0))

    def test_covers_every_session_exactly_once(self):
        for count in (0, 1, 7, 64):
            for shards in (1, 2, 5, 9):
                slices = partition_sessions(count, shards)
                assert len(slices) == shards
                assert slices[0][0] == 0
                assert slices[-1][1] == count
                for (_, stop), (start, _) in zip(slices, slices[1:]):
                    assert stop == start

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            partition_sessions(-1, 2)
        with pytest.raises(ValueError, match="shards"):
            partition_sessions(4, 0)


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
