"""Streaming metrics collected by simulation runs.

Closed-stream runs (single-user, multi-user) populate the response-time
and I/O counters; open-system runs additionally record *when* each query
arrived and was admitted, so queueing delay (arrival -> admission) is
separated from service time (admission -> completion).  Aggregates that
need at least one query raise a uniform ``ValueError("no queries were
executed")`` instead of leaking opaque builtin errors.

Every aggregate is maintained *online*: :meth:`SimulationResult.record`
folds one :class:`QueryMetrics` into constant-size accumulators, so a
run's memory footprint no longer grows with its query count.  The pieces
are

* :class:`ExactSum` — a Shewchuk exact-partials accumulator whose final
  value is the correctly rounded sum of everything ever added, in *any*
  insertion order.  Because ``statistics.fmean(xs)`` is exactly
  ``math.fsum(xs) / len(xs)``, streaming means reproduce the old
  list-walking means bit for bit.
* :class:`PercentileSketch` — a deterministic streaming percentile
  sketch that stores raw values while the population is at most
  ``exact_threshold`` (percentiles are then *exact*, identical to
  sorting the full list) and afterwards collapses to fixed
  exponent-aligned bins (``math.frexp``-indexed, so binning never
  depends on platform ``log`` rounding) with ≲1% relative error.
* per-stream rollups built incrementally while records are retained.

``SimulationResult`` itself has two *record retention* modes:
``"full"`` (the default — per-query :class:`QueryMetrics` records and
per-stream rollups are kept, exactly as before) and ``"bounded"``
(records are folded into the accumulators and dropped, so memory stays
O(1) in the query count; per-query records and per-stream rollups are
unavailable).  Aggregates are identical in both modes until the
percentile sketches pass their exactness threshold.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Record-retention modes for :class:`SimulationResult`.
RETENTION_FULL = "full"
RETENTION_BOUNDED = "bounded"
RETENTION_MODES = (RETENTION_FULL, RETENTION_BOUNDED)

#: Default population size up to which percentile sketches stay exact.
#: Every pre-existing scenario runs far fewer queries per point, so
#: their percentiles keep coming from the full sorted sample.
PERCENTILE_EXACT_THRESHOLD = 4096

#: Sub-bins per power-of-two octave once a sketch has collapsed.  A
#: power of two, so bin boundaries are exact dyadic rationals: relative
#: bin width is 1/64 ≈ 1.6%.
_SKETCH_SUBBINS = 64


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (``p`` in 0..100).

    Deterministic and dependency-free (numpy's default 'linear' method):
    the rank ``p/100 * (n-1)`` is interpolated between the two nearest
    order statistics.
    """
    if not values:
        raise ValueError("no values to take a percentile of")
    if not 0 <= p <= 100:
        raise ValueError("percentile must be between 0 and 100")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _grow_partials(partials: list[float], value: float) -> None:
    """Fold ``value`` into a Shewchuk non-overlapping partials list.

    After the call the partials represent the *exact* real sum of
    everything folded in so far (no rounding has happened yet), which is
    what makes the accumulator order- and grouping-invariant.
    """
    x = value
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class ExactSum:
    """Streaming float sum, exact until the final rounding.

    ``value`` equals ``math.fsum`` of every float ever added — bit for
    bit, in any insertion order — because the internal partials always
    represent the exact (unrounded) running sum.
    """

    __slots__ = ("partials",)

    def __init__(self):
        self.partials: list[float] = []

    def add(self, value: float) -> None:
        _grow_partials(self.partials, value)

    @property
    def value(self) -> float:
        return math.fsum(self.partials)


class PercentileSketch:
    """Deterministic streaming percentile sketch, exact below a threshold.

    While the population is at most ``exact_threshold`` the sketch keeps
    the raw values and :meth:`percentile` is *exact* — identical to
    sorting the full sample.  Past the threshold the values collapse
    into fixed exponent-aligned bins: a positive value ``v`` with
    ``frexp(v) = (m, e)`` lands in sub-bin ``int((2m - 1) * 64)`` of
    octave ``e`` (zero gets a dedicated bin), so bin boundaries are
    exact dyadic rationals independent of platform ``log`` rounding and
    the relative within-bin error is at most 1/64.  Because the binning
    of a value never depends on the sketch's state, the collapsed form
    is a pure function of the recorded multiset, so percentiles do not
    depend on the recording order.

    Only non-negative finite values are accepted (response times and
    queueing delays are).
    """

    __slots__ = ("exact_threshold", "count", "_values", "_zero", "_bins",
                 "_min", "_max")

    def __init__(self, exact_threshold: int = PERCENTILE_EXACT_THRESHOLD):
        if exact_threshold < 1:
            raise ValueError("exact_threshold must be >= 1")
        self.exact_threshold = exact_threshold
        self.count = 0
        self._values: list[float] | None = []
        self._zero = 0
        self._bins: dict[int, int] = {}
        self._min = math.inf
        self._max = -math.inf

    @property
    def is_exact(self) -> bool:
        """Whether percentiles still come from the full raw sample."""
        return self._values is not None

    @property
    def minimum(self) -> float:
        if not self.count:
            raise ValueError("no values to take a percentile of")
        return self._min

    @property
    def maximum(self) -> float:
        if not self.count:
            raise ValueError("no values to take a percentile of")
        return self._max

    @staticmethod
    def _bin_index(value: float) -> int:
        # frexp gives value = m * 2**e with m in [0.5, 1); both the
        # scaling and the subtraction below are exact, so the sub-bin
        # is a pure function of the value's bits.
        m, e = math.frexp(value)
        sub = int((m * 2.0 - 1.0) * _SKETCH_SUBBINS)
        return e * _SKETCH_SUBBINS + sub

    @staticmethod
    def _bin_bounds(index: int) -> tuple[float, float]:
        e, sub = divmod(index, _SKETCH_SUBBINS)
        lower = math.ldexp(0.5 + sub / (2 * _SKETCH_SUBBINS), e)
        upper = math.ldexp(0.5 + (sub + 1) / (2 * _SKETCH_SUBBINS), e)
        return lower, upper

    def _bin(self, value: float) -> None:
        if value == 0.0:
            self._zero += 1
        else:
            index = self._bin_index(value)
            self._bins[index] = self._bins.get(index, 0) + 1

    def _collapse(self) -> None:
        values, self._values = self._values, None
        for value in values:
            self._bin(value)

    def record(self, value: float) -> None:
        if not (value >= 0.0) or math.isinf(value):
            raise ValueError(
                "percentile sketch values must be finite and non-negative"
            )
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._values is not None:
            self._values.append(value)
            if len(self._values) > self.exact_threshold:
                self._collapse()
        else:
            self._bin(value)

    def _order_statistic(self, k: int, ordered_bins: list[int]) -> float:
        """Estimated k-th smallest recorded value (binned mode).

        The k-th occupant's bin is located by cumulative counts; its
        position within the bin is taken as the occupant's midpoint, so
        the estimate sits strictly inside the bin holding the true
        order statistic (error at most one bin width).
        """
        if k < self._zero:
            return 0.0
        cumulative = self._zero
        for index in ordered_bins:
            occupants = self._bins[index]
            if k < cumulative + occupants:
                lower, upper = self._bin_bounds(index)
                fraction = (k - cumulative + 0.5) / occupants
                return lower + (upper - lower) * fraction
            # repro-lint: disable=DET-FLOAT -- integer bin occupancies;
            # integer addition is exact in any order.
            cumulative += occupants
        return self._max

    def percentile(self, p: float) -> float:
        if not self.count:
            raise ValueError("no values to take a percentile of")
        if not 0 <= p <= 100:
            raise ValueError("percentile must be between 0 and 100")
        if self._values is not None:
            return percentile(self._values, p)
        rank = (p / 100.0) * (self.count - 1)
        if rank <= 0:
            return self._min
        if rank >= self.count - 1:
            return self._max
        # Mirror the exact path: interpolate between the two bracketing
        # order statistics, each estimated within its own bin, so bin
        # gaps never inflate the error past one bin width.
        ordered_bins = sorted(self._bins)
        low = int(rank)
        fraction = rank - low
        estimate = self._order_statistic(low, ordered_bins)
        if fraction:
            above = self._order_statistic(low + 1, ordered_bins)
            estimate += (above - estimate) * fraction
        # The exact minimum/maximum are tracked outside the bins; clamp
        # so estimates never escape the observed range.
        return min(max(estimate, self._min), self._max)


@dataclass(frozen=True)
class QueryMetrics:
    """Measurements for one executed query."""

    name: str
    response_time: float
    subqueries: int
    fact_io_ops: int
    fact_pages: int
    bitmap_io_ops: int
    bitmap_pages: int
    coordinator_node: int
    #: Session/stream the query belongs to (0 for single-user runs).
    stream: int = 0
    #: Open-system accounting; all zero for closed-stream runs, where
    #: queries start executing the moment they are issued.
    arrived_at: float = 0.0
    admitted_at: float = 0.0
    queue_delay: float = 0.0

    @property
    def total_pages(self) -> int:
        return self.fact_pages + self.bitmap_pages

    @property
    def total_delay(self) -> float:
        """Sojourn time: queueing delay plus service (response) time."""
        return self.queue_delay + self.response_time


@dataclass(frozen=True)
class StreamStats:
    """Per-stream (per-session) aggregate of an open/multi-user run."""

    stream: int
    query_count: int
    avg_response_time: float
    avg_queue_delay: float


class _StreamAccumulator:
    """Incremental per-stream rollup (count + exact sums)."""

    __slots__ = ("count", "response", "queue")

    def __init__(self):
        self.count = 0
        self.response = ExactSum()
        self.queue = ExactSum()


class SimulationResult:
    """Aggregate outcome of one simulation run (a query stream).

    Aggregates are maintained online by :meth:`record` — feeding one
    :class:`QueryMetrics` at a time — so they cost O(1) memory per
    query.  ``retention`` controls whether the raw records are *also*
    kept on :attr:`queries`:

    * ``"full"`` (default): records and per-stream rollups are
      retained, exactly like the historical list-backed result.
    * ``"bounded"``: records are dropped after folding; memory stays
      constant in the query count.  :attr:`queries` stays empty and
      :meth:`per_stream` is unavailable.

    :meth:`record` is the only supported write path for query metrics —
    appending to :attr:`queries` directly would bypass the accumulators.
    """

    def __init__(
        self,
        queries: list[QueryMetrics] | None = None,
        elapsed: float = 0.0,
        disk_busy: list[float] | None = None,
        disk_seek: list[float] | None = None,
        cpu_busy: list[float] | None = None,
        buffer_hits: int = 0,
        buffer_misses: int = 0,
        event_count: int = 0,
        peak_mpl: int = 0,
        peak_queue_length: int = 0,
        queued_arrivals: int = 0,
        retention: str = RETENTION_FULL,
        exact_percentile_threshold: int = PERCENTILE_EXACT_THRESHOLD,
    ):
        if retention not in RETENTION_MODES:
            raise ValueError(
                f"retention must be one of {RETENTION_MODES}, "
                f"got {retention!r}"
            )
        self.retention = retention
        self.elapsed = elapsed
        self.buffer_hits = buffer_hits
        self.buffer_misses = buffer_misses
        self.event_count = event_count
        #: Open-system admission statistics (zero for closed-stream runs).
        self.peak_mpl = peak_mpl
        self.peak_queue_length = peak_queue_length
        self.queued_arrivals = queued_arrivals

        #: Raw records; populated only under full retention.
        self.queries: list[QueryMetrics] = []

        self._count = 0
        self._total_pages = 0
        self._response_sum = ExactSum()
        self._queue_sum = ExactSum()
        self._total_delay_sum = ExactSum()
        self._response_max = -math.inf
        self._queue_max = -math.inf
        self._response_sketch = PercentileSketch(exact_percentile_threshold)
        self._queue_sketch = PercentileSketch(exact_percentile_threshold)
        self._total_delay_sketch = PercentileSketch(exact_percentile_threshold)
        self._streams: dict[int, _StreamAccumulator] = {}

        #: Per-device busy and seek seconds, set once the run finishes.
        self.disk_busy: list[float] = list(disk_busy or [])
        self.disk_seek: list[float] = list(disk_seek or [])
        self.cpu_busy: list[float] = list(cpu_busy or [])


        for query in queries or []:
            self.record(query)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationResult(queries={self._count}, "
            f"retention={self.retention!r}, elapsed={self.elapsed!r})"
        )

    # -- recording ---------------------------------------------------------

    def record(self, query: QueryMetrics) -> None:
        """Fold one query's measurements into the streaming aggregates."""
        self._count += 1
        self._total_pages += query.total_pages
        self._response_sum.add(query.response_time)
        self._queue_sum.add(query.queue_delay)
        self._total_delay_sum.add(query.total_delay)
        if query.response_time > self._response_max:
            self._response_max = query.response_time
        if query.queue_delay > self._queue_max:
            self._queue_max = query.queue_delay
        self._response_sketch.record(query.response_time)
        self._queue_sketch.record(query.queue_delay)
        self._total_delay_sketch.record(query.total_delay)
        if self.retention == RETENTION_FULL:
            self.queries.append(query)
            rollup = self._streams.get(query.stream)
            if rollup is None:
                rollup = self._streams[query.stream] = _StreamAccumulator()
            rollup.count += 1
            rollup.response.add(query.response_time)
            rollup.queue.add(query.queue_delay)

    # -- aggregates --------------------------------------------------------

    def _require_queries(self) -> None:
        if not self._count:
            raise ValueError("no queries were executed")

    @property
    def query_count(self) -> int:
        """Queries folded into the aggregates (regardless of retention)."""
        return self._count

    @property
    def records_retained(self) -> int:
        """Raw records currently held (0 under bounded retention)."""
        return len(self.queries)

    @property
    def exact_percentile_threshold(self) -> int:
        return self._response_sketch.exact_threshold

    @property
    def percentile_source(self) -> str:
        """``"exact"`` while sketches hold raw samples, else ``"sketch"``."""
        return "exact" if self._response_sketch.is_exact else "sketch"

    @property
    def avg_response_time(self) -> float:
        self._require_queries()
        return self._response_sum.value / self._count

    @property
    def max_response_time(self) -> float:
        self._require_queries()
        return self._response_max

    @property
    def avg_queue_delay(self) -> float:
        self._require_queries()
        return self._queue_sum.value / self._count

    @property
    def max_queue_delay(self) -> float:
        self._require_queries()
        return self._queue_max

    @property
    def avg_total_delay(self) -> float:
        self._require_queries()
        return self._total_delay_sum.value / self._count

    def response_time_percentile(self, p: float) -> float:
        self._require_queries()
        return self._response_sketch.percentile(p)

    def queue_delay_percentile(self, p: float) -> float:
        self._require_queries()
        return self._queue_sketch.percentile(p)

    def total_delay_percentile(self, p: float) -> float:
        self._require_queries()
        return self._total_delay_sketch.percentile(p)

    def per_stream(self) -> dict[int, StreamStats]:
        """Per-stream aggregates, keyed by stream id (sorted).

        Available only under full retention: bounded retention drops
        the per-stream rollup along with the records, because open
        workloads have one stream per session and the rollup would
        grow O(sessions).
        """
        self._require_queries()
        if self.retention != RETENTION_FULL:
            raise ValueError(
                "per-stream rollups are not retained in bounded mode"
            )
        return {
            stream: StreamStats(
                stream=stream,
                query_count=rollup.count,
                avg_response_time=rollup.response.value / rollup.count,
                avg_queue_delay=rollup.queue.value / rollup.count,
            )
            for stream, rollup in sorted(self._streams.items())
        }

    @property
    def throughput_qps(self) -> float:
        """Completed queries per simulated second."""
        self._require_queries()
        if self.elapsed <= 0:
            raise ValueError("no simulated time elapsed")
        return self._count / self.elapsed

    @property
    def avg_disk_utilization(self) -> float:
        """Mean disk busy fraction; 0.0 for a diskless configuration."""
        if self.elapsed <= 0:
            raise ValueError("no simulated time elapsed")
        if not self.disk_busy:
            return 0.0
        return statistics.fmean(self.disk_busy) / self.elapsed

    @property
    def avg_cpu_utilization(self) -> float:
        """Mean CPU busy fraction; 0.0 for a CPU-less configuration."""
        if self.elapsed <= 0:
            raise ValueError("no simulated time elapsed")
        if not self.cpu_busy:
            return 0.0
        return statistics.fmean(self.cpu_busy) / self.elapsed

    @property
    def total_pages(self) -> int:
        return self._total_pages

    def speedup_against(self, baseline: "SimulationResult") -> float:
        """Baseline average response time divided by this run's."""
        self._require_queries()
        baseline._require_queries()
        baseline_avg = baseline.avg_response_time
        if baseline_avg <= 0:
            raise ValueError("baseline average response time is zero")
        return baseline_avg / self.avg_response_time
