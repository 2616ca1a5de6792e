"""Simulation parameters (Table 4 of the paper).

Every default below is taken verbatim from Table 4; the handful of
implementation knobs that the paper does not parameterise (disk capacity
behind the track model, I/O coalescing for event-count control) are
grouped at the end and documented.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class DiskParameters:
    """Disk device timing (Table 4, left column)."""

    avg_seek_ms: float = 10.0
    settle_controller_ms: float = 3.0
    per_page_ms: float = 1.0
    #: Pages a disk can hold; defines the track span behind the
    #: position-dependent seek model (not in Table 4; 4 GB of 4 KB pages).
    capacity_pages: int = 1_048_576
    #: Pages per track for the seek-distance model.
    pages_per_track: int = 64

    def __post_init__(self) -> None:
        # The disk prices requests as sums of these terms and skips the
        # generic negative-service check, so they must hold here.
        for name in ("avg_seek_ms", "settle_controller_ms", "per_page_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        for name in ("capacity_pages", "pages_per_track"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class CpuCosts:
    """Instruction counts per operation (Table 4, middle column)."""

    initiate_query: int = 50_000
    terminate_query: int = 10_000
    initiate_subquery: int = 10_000
    terminate_subquery: int = 10_000
    read_page: int = 3_000
    process_bitmap_page: int = 1_500
    extract_table_row: int = 100
    aggregate_table_row: int = 100
    send_message_base: int = 1_000
    receive_message_base: int = 1_000
    #: Instructions per message byte on top of the base cost.
    per_message_byte: int = 1

    def __post_init__(self) -> None:
        # A negative count would only fail later, inside a CPU burst
        # (or, for per-page costs, never).
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{spec.name} must be finite and non-negative, "
                    f"got {value!r}"
                )


@dataclass(frozen=True)
class NetworkParameters:
    """Idealised contention-free network (Table 4, right column)."""

    bandwidth_bits_per_s: float = 100e6
    small_message_bytes: int = 128
    large_message_bytes: int = 4096

    def __post_init__(self) -> None:
        bandwidth = self.bandwidth_bits_per_s
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(
                "bandwidth_bits_per_s must be finite and positive, "
                f"got {bandwidth!r}"
            )
        for name in ("small_message_bytes", "large_message_bytes"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class BufferParameters:
    """Buffer manager settings (Table 4, right column)."""

    page_size: int = 4096
    fact_buffer_pages: int = 1_000
    bitmap_buffer_pages: int = 5_000
    prefetch_fact_pages: int = 8
    prefetch_bitmap_pages: int = 5
    #: Table 6 marks the bitmap granule "(var.)": it shrinks to the
    #: bitmap-fragment size when fragments are smaller than the granule.
    adaptive_bitmap_prefetch: bool = True

    def __post_init__(self) -> None:
        # The work expander divides by the page size and the fact
        # granule, and steps through bitmap extents one granule at a
        # time, so a zero there would fail (or loop) deep inside a run.
        for name in (
            "page_size", "prefetch_fact_pages", "prefetch_bitmap_pages"
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        for name in ("fact_buffer_pages", "bitmap_buffer_pages"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class HardwareParameters:
    """Machine configuration: varied per experiment (Tables 4 and 5)."""

    n_disks: int = 100
    n_nodes: int = 20
    cpu_mips: float = 50.0
    #: Maximum concurrent subqueries per node ("t"); the coordinator
    #: node runs t-1 because coordination counts as one task.
    subqueries_per_node: int = 4

    def __post_init__(self) -> None:
        # Disk and node counts size the device lists and the task limit
        # sizes each node's scheduler; a fraction or zero would only
        # fail (or run wrongly) deep inside a run.
        for name in ("n_disks", "n_nodes", "subqueries_per_node"):
            value = getattr(self, name)
            if (
                not isinstance(value, numbers.Integral)
                or isinstance(value, bool)
                or value < 1
            ):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
        mips = self.cpu_mips
        if not (math.isfinite(mips) and mips > 0):
            raise ValueError(
                f"cpu_mips must be finite and positive, got {mips!r}"
            )


@dataclass(frozen=True)
class WorkloadParameters:
    """Open-system workload shape (beyond the paper's single-user mode).

    Section 7 defers multi-user mode to future work; these knobs define
    the arrival side of it.  ``arrival_process`` names one of the
    distributions in :mod:`repro.workload.arrivals`; ``max_mpl`` caps
    concurrent admissions (``None`` = no admission control);
    ``think_time_s`` is the mean exponential pause between consecutive
    queries of one session (closed/open hybrid mode; 0 = pure open).
    """

    arrival_process: str = "poisson"  # "poisson" | "fixed" | "bursty"
    arrival_rate_qps: float = 1.0
    burst_size: int = 4
    max_mpl: int | None = None
    think_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.arrival_process not in ("poisson", "fixed", "bursty"):
            raise ValueError(
                f"unknown arrival_process {self.arrival_process!r}"
            )
        # NaN and inf pass the sign checks but fail (or run wrongly)
        # deep inside the event loop, so reject them here.
        rate = self.arrival_rate_qps
        if not (math.isfinite(rate) and rate > 0):
            raise ValueError(
                f"arrival_rate_qps must be finite and positive, got {rate!r}"
            )
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.max_mpl is not None and self.max_mpl < 1:
            raise ValueError("max_mpl must be >= 1 (or None)")
        think = self.think_time_s
        if not (math.isfinite(think) and think >= 0):
            raise ValueError(
                f"think_time_s must be finite and non-negative, got {think!r}"
            )


@dataclass(frozen=True)
class SimulationParameters:
    """Everything a simulation run needs besides schema and workload."""

    hardware: HardwareParameters = field(default_factory=HardwareParameters)
    disk: DiskParameters = field(default_factory=DiskParameters)
    cpu_costs: CpuCosts = field(default_factory=CpuCosts)
    network: NetworkParameters = field(default_factory=NetworkParameters)
    buffer: BufferParameters = field(default_factory=BufferParameters)
    #: Open-system workload shape; only consulted by
    #: :meth:`ParallelWarehouseSimulator.run_open_system`.
    workload: WorkloadParameters = field(default_factory=WorkloadParameters)

    #: Subqueries read bitmap fragments of one fact fragment in parallel
    #: (Section 6.2's default); False serialises them for the ablation.
    parallel_bitmap_io: bool = True
    #: Staggered round robin (Figure 2): bitmap fragments of one fact
    #: fragment go to consecutive distinct disks.  False co-locates them,
    #: which makes parallel bitmap I/O ineffective.
    staggered_allocation: bool = True
    #: "round_robin" (paper default) or "gap" — Section 4.6's shifted
    #: scheme that avoids gcd clustering for stride-structured queries.
    allocation_scheme: str = "round_robin"
    #: Section 6.3's remedy for over-fine fragmentations: this many
    #: consecutive fragments form one allocation/subquery unit whose
    #: sub-page bitmap fragments pack into whole pages.
    cluster_factor: int = 1
    #: Zipf exponent for data skew across fragments (Section 7 future
    #: work): 0 = the paper's uniform distribution; larger values make
    #: some fragments hold disproportionately many fact rows, stressing
    #: the load balancing.  Fragment ranks are permuted by `seed` so the
    #: skew does not align with the allocation order.
    data_skew: float = 0.0
    #: Merge up to this many consecutive same-disk granule reads of one
    #: subquery into a single disk request (service time is the sum of
    #: the individual services, so aggregate utilisation is unchanged).
    #: Purely an event-count control; 1 = fully faithful.
    io_coalesce: int = 1
    #: Optional global cap on concurrent subqueries across all nodes
    #: (the "degree of parallelism" axis of Figure 6); None = only the
    #: per-node limit applies.
    max_concurrent_subqueries: int | None = None
    #: Record retention for the run's :class:`SimulationResult`:
    #: ``"full"`` keeps per-query records and per-stream rollups (the
    #: historical behaviour), ``"bounded"`` folds each query into the
    #: streaming aggregates and drops the record, so memory stays O(1)
    #: in the query count (warehouse-scale open runs).  A scheduling
    #: knob: it never changes the simulated physics.
    record_retention: str = "full"
    #: Seed for the (small) stochastic choices: coordinator node and
    #: query parameter selection.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.io_coalesce < 1:
            raise ValueError("io_coalesce must be >= 1")
        if self.cluster_factor < 1:
            raise ValueError("cluster_factor must be >= 1")
        # NaN would silently run uniform (``nan > 0`` is false) while
        # still entering the config hash; inf puts every row on one
        # fragment.
        skew = self.data_skew
        if not (math.isfinite(skew) and skew >= 0):
            raise ValueError(
                f"data_skew must be finite and non-negative, got {skew!r}"
            )
        if skew > 0 and self.cluster_factor > 1:
            raise ValueError(
                "data_skew and cluster_factor cannot be combined (yet)"
            )
        if self.record_retention not in ("full", "bounded"):
            raise ValueError(
                "record_retention must be 'full' or 'bounded', "
                f"got {self.record_retention!r}"
            )
        # A cap below one admits no subquery: the coordinator would wait
        # forever on an empty schedule.
        cap = self.max_concurrent_subqueries
        if cap is not None and cap < 1:
            raise ValueError(
                "max_concurrent_subqueries must be >= 1 (or None), "
                f"got {cap!r}"
            )

    def with_hardware(self, **kwargs) -> "SimulationParameters":
        """A copy with hardware fields replaced (d, p, t sweeps)."""
        from dataclasses import replace

        return replace(self, hardware=replace(self.hardware, **kwargs))
