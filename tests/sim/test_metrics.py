"""SimulationResult / QueryMetrics aggregation."""

import math
import random
import statistics

import pytest

from repro.sim.metrics import (
    ExactSum,
    PercentileSketch,
    QueryMetrics,
    SimulationResult,
    percentile,
)


def metrics(name="q", response=1.0, **kwargs):
    defaults = dict(
        subqueries=10,
        fact_io_ops=5,
        fact_pages=40,
        bitmap_io_ops=2,
        bitmap_pages=10,
        coordinator_node=0,
    )
    defaults.update(kwargs)
    return QueryMetrics(name=name, response_time=response, **defaults)


class TestQueryMetrics:
    def test_total_pages(self):
        assert metrics().total_pages == 50


class TestSimulationResult:
    def test_avg_and_max_response(self):
        result = SimulationResult(
            queries=[metrics(response=1.0), metrics(response=3.0)]
        )
        assert result.avg_response_time == pytest.approx(2.0)
        assert result.max_response_time == 3.0
        assert result.query_count == 2

    def test_empty_result_error_contract_is_uniform(self):
        # Every aggregate that needs queries raises the same friendly
        # ValueError — no opaque builtin errors from max()/fmean().
        empty = SimulationResult()
        baseline = SimulationResult(queries=[metrics()])
        for attribute in (
            "avg_response_time",
            "max_response_time",
            "avg_queue_delay",
            "max_queue_delay",
            "avg_total_delay",
            "throughput_qps",
        ):
            with pytest.raises(ValueError, match="no queries were executed"):
                getattr(empty, attribute)
        with pytest.raises(ValueError, match="no queries were executed"):
            empty.speedup_against(baseline)
        with pytest.raises(ValueError, match="no queries were executed"):
            baseline.speedup_against(empty)
        with pytest.raises(ValueError, match="no queries were executed"):
            empty.response_time_percentile(50)
        with pytest.raises(ValueError, match="no queries were executed"):
            empty.per_stream()

    def test_utilizations(self):
        result = SimulationResult(
            queries=[metrics()],
            elapsed=10.0,
            disk_busy=[5.0, 10.0],
            cpu_busy=[2.0, 4.0],
        )
        assert result.avg_disk_utilization == pytest.approx(0.75)
        assert result.avg_cpu_utilization == pytest.approx(0.3)

    def test_utilization_raises_without_elapsed(self):
        # Zero-elapsed handling is uniform with throughput_qps: the
        # friendly ValueError, not a silent 0.0.
        result = SimulationResult(queries=[metrics()], disk_busy=[5.0])
        for attribute in ("avg_disk_utilization", "avg_cpu_utilization"):
            with pytest.raises(ValueError, match="no simulated time elapsed"):
                getattr(result, attribute)

    def test_utilization_zero_for_deviceless_configuration(self):
        # With simulated time but no devices of a kind, 0.0 is the
        # documented answer (nothing was busy, nothing divided by zero).
        result = SimulationResult(queries=[metrics()], elapsed=4.0)
        assert result.avg_disk_utilization == 0.0
        assert result.avg_cpu_utilization == 0.0

    def test_total_pages_sums_queries(self):
        result = SimulationResult(queries=[metrics(), metrics()])
        assert result.total_pages == 100

    def test_speedup_against_baseline(self):
        slow = SimulationResult(queries=[metrics(response=10.0)])
        fast = SimulationResult(queries=[metrics(response=2.0)])
        assert fast.speedup_against(slow) == pytest.approx(5.0)

    def test_speedup_against_zero_baseline_is_friendly(self):
        # Previously a bare ZeroDivisionError leaked out.
        zero = SimulationResult(queries=[metrics(response=0.0)])
        fast = SimulationResult(queries=[metrics(response=2.0)])
        with pytest.raises(ValueError, match="baseline average response"):
            fast.speedup_against(zero)

    def test_queue_delay_aggregates(self):
        result = SimulationResult(
            queries=[
                metrics(response=1.0, queue_delay=0.5, arrived_at=0.0,
                        admitted_at=0.5),
                metrics(response=3.0, queue_delay=1.5, arrived_at=1.0,
                        admitted_at=2.5),
            ],
            elapsed=6.0,
        )
        assert result.avg_queue_delay == pytest.approx(1.0)
        assert result.max_queue_delay == 1.5
        assert result.avg_total_delay == pytest.approx(3.0)
        assert result.throughput_qps == pytest.approx(2 / 6.0)
        assert result.queries[0].total_delay == pytest.approx(1.5)

    def test_per_stream_groups_and_sorts(self):
        result = SimulationResult(
            queries=[
                metrics(response=2.0, stream=1, queue_delay=1.0),
                metrics(response=4.0, stream=0),
                metrics(response=6.0, stream=1, queue_delay=3.0),
            ]
        )
        per_stream = result.per_stream()
        assert list(per_stream) == [0, 1]
        assert per_stream[0].query_count == 1
        assert per_stream[0].avg_response_time == pytest.approx(4.0)
        assert per_stream[1].query_count == 2
        assert per_stream[1].avg_response_time == pytest.approx(4.0)
        assert per_stream[1].avg_queue_delay == pytest.approx(2.0)

    def test_closed_stream_defaults_are_zero(self):
        q = metrics()
        assert q.stream == 0
        assert q.arrived_at == q.admitted_at == q.queue_delay == 0.0
        assert q.total_delay == q.response_time


class TestPercentile:
    def test_interpolates_linearly(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 25) == pytest.approx(1.75)

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == percentile(
            [1.0, 2.0, 3.0, 4.0], 50
        )

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_result_percentiles(self):
        result = SimulationResult(
            queries=[metrics(response=float(i)) for i in range(1, 11)]
        )
        assert result.response_time_percentile(50) == pytest.approx(5.5)
        assert (
            result.response_time_percentile(95)
            <= result.max_response_time
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestExactSum:
    def test_matches_fsum_in_any_order(self):
        rng = random.Random(7)
        values = [rng.uniform(0, 1e6) * 10 ** rng.randint(-8, 8)
                  for _ in range(500)]
        expected = math.fsum(values)
        for shuffle_seed in range(5):
            shuffled = list(values)
            random.Random(shuffle_seed).shuffle(shuffled)
            acc = ExactSum()
            for value in shuffled:
                acc.add(value)
            assert acc.value == expected

    def test_mean_reproduces_fmean(self):
        rng = random.Random(13)
        values = [rng.random() * 3.7 for _ in range(321)]
        acc = ExactSum()
        for value in values:
            acc.add(value)
        assert acc.value / len(values) == statistics.fmean(values)


class TestPercentileSketch:
    def test_exact_below_threshold(self):
        rng = random.Random(3)
        values = [rng.expovariate(0.5) for _ in range(100)]
        sketch = PercentileSketch(exact_threshold=100)
        for value in values:
            sketch.record(value)
        assert sketch.is_exact
        for p in (0, 10, 50, 90, 95, 99, 100):
            assert sketch.percentile(p) == percentile(values, p)

    def test_collapses_past_threshold_with_bounded_error(self):
        rng = random.Random(5)
        values = [rng.expovariate(0.5) for _ in range(1000)]
        sketch = PercentileSketch(exact_threshold=64)
        for value in values:
            sketch.record(value)
        assert not sketch.is_exact
        for p in (1, 25, 50, 75, 95, 99):
            exact = percentile(values, p)
            approx = sketch.percentile(p)
            # Bin width is 1/64 of the octave: ~1.6% relative error.
            assert approx == pytest.approx(exact, rel=1 / 32)
        assert sketch.percentile(0) == min(values)
        assert sketch.percentile(100) == max(values)

    def test_zero_values_have_a_dedicated_bin(self):
        sketch = PercentileSketch(exact_threshold=2)
        for value in [0.0] * 6 + [5.0, 6.0]:
            sketch.record(value)
        assert not sketch.is_exact
        assert sketch.percentile(50) == 0.0
        assert sketch.percentile(100) == 6.0

    def test_rejects_negative_and_non_finite(self):
        sketch = PercentileSketch()
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and non-negative"):
                sketch.record(bad)


class TestRetentionModes:
    def test_bounded_drops_records_but_keeps_aggregates(self):
        queries = [metrics(response=float(i), queue_delay=0.5 * i)
                   for i in range(1, 9)]
        full = SimulationResult(queries=list(queries), elapsed=10.0)
        bounded = SimulationResult(
            queries=list(queries), elapsed=10.0, retention="bounded"
        )
        assert full.records_retained == 8
        assert bounded.records_retained == 0
        assert bounded.query_count == 8
        for attribute in (
            "avg_response_time", "max_response_time", "avg_queue_delay",
            "max_queue_delay", "avg_total_delay", "throughput_qps",
            "total_pages",
        ):
            assert getattr(bounded, attribute) == getattr(full, attribute)
        for p in (0, 50, 95, 100):
            assert (bounded.response_time_percentile(p)
                    == full.response_time_percentile(p))

    def test_bounded_has_no_per_stream_rollup(self):
        bounded = SimulationResult(
            queries=[metrics()], retention="bounded"
        )
        with pytest.raises(ValueError, match="bounded"):
            bounded.per_stream()

    def test_unknown_retention_rejected(self):
        with pytest.raises(ValueError, match="retention"):
            SimulationResult(retention="everything")
