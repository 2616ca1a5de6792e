"""Simulation parameters (Table 4 of the paper).

Every default below is taken verbatim from Table 4; the handful of
implementation knobs that the paper does not parameterise (disk capacity
behind the track model, I/O coalescing for event-count control) are
grouped at the end and documented.

Each field declares its domain, the values it admits, in the metadata
of its own ``dataclasses.field`` (:func:`knob`): the declarations are
the knob table.  :func:`check_domains` enforces it at construction,
naming class, field and value; only cross-field rules stay in
``__post_init__``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace


@dataclass(frozen=True)
class Domain:
    """The values one configuration field admits: data, not a closure.

    Numbers (``"integer"``, or finite ``"real"``; never a ``bool``) are
    bounded below by ``lo``, strictly if ``strict``; the other kinds are
    ``"choice"`` (of ``choices``) and ``"instance"`` (of ``cls``: a
    config class, ``bool``, ``str``, ...).  ``optional`` also admits
    ``None``.  A domain never converts a value, so hashes stay put.
    """

    kind: str
    lo: float = 0
    strict: bool = False
    choices: tuple[str, ...] = ()
    cls: type | None = None
    optional: bool = False

    def admits(self, value) -> bool:
        if value is None:
            return self.optional
        # Exact ints and floats skip the slow ABC isinstance, which
        # admits numpy scalars; a bool never counts as a number.
        kind = self.kind
        if kind == "integer":
            number = type(value) is int or (
                not isinstance(value, bool)
                and isinstance(value, numbers.Integral)
            )
        elif kind == "real":
            number = type(value) in (int, float) or (
                not isinstance(value, bool) and isinstance(value, numbers.Real)
            )
        elif kind == "choice":
            return isinstance(value, str) and value in self.choices
        else:
            return isinstance(value, self.cls)
        # The chained compare rejects NaN and both infinities.
        return (
            number
            and (self.lo < value if self.strict else self.lo <= value)
            and value < math.inf
        )

    def check(self, owner: str, name: str, value) -> None:
        """Raise ``ValueError`` naming ``owner.name`` unless admitted."""
        if not self.admits(value):
            raise ValueError(f"{owner}.{name} must be {self}, got {value!r}")

    def __str__(self) -> str:
        kind = self.kind
        if kind == "integer" or kind == "real":
            noun = "an integer" if kind == "integer" else "a finite real"
            text = f"{noun} {'>' if self.strict else '>='} {self.lo!r}"
        elif kind == "choice":
            text = "one of " + ", ".join(map(repr, self.choices))
        else:
            text = f"a {self.cls.__name__}"
        return f"None or {text}" if self.optional else text


POSITIVE_INT = Domain("integer", lo=1)
NON_NEGATIVE_INT = Domain("integer", lo=0)
POSITIVE_REAL = Domain("real", lo=0, strict=True)
NON_NEGATIVE_REAL = Domain("real", lo=0)
FLAG = Domain("instance", cls=bool)
TEXT = Domain("instance", cls=str)
ARRIVAL_PROCESS = Domain("choice", choices=("poisson", "fixed", "bursty"))
ALLOCATION_SCHEME = Domain("choice", choices=("round_robin", "gap"))
RECORD_RETENTION = Domain("choice", choices=("full", "bounded"))


def optional(domain: Domain) -> Domain:
    """``domain`` or ``None``."""
    return replace(domain, optional=True)


def knob(domain: Domain, default=MISSING):
    """A dataclass field whose metadata declares its domain."""
    return field(default=default, metadata={"domain": domain})


def nested(cls: type):
    """A field holding a ``cls`` instance, by default ``cls()``."""
    return field(
        default_factory=cls, metadata={"domain": Domain("instance", cls=cls)}
    )


#: Per class, its ``(field name, domain)`` pairs in declaration order.
_TABLES: dict[type, tuple[tuple[str, Domain], ...]] = {}


def check_domains(config) -> None:
    """Raise ``ValueError`` for the first field outside its domain."""
    cls = type(config)
    table = _TABLES.get(cls)
    if table is None:
        table = _TABLES[cls] = tuple(
            (spec.name, spec.metadata["domain"]) for spec in fields(cls)
        )
    for name, domain in table:
        domain.check(cls.__name__, name, getattr(config, name))


@dataclass(frozen=True)
class DiskParameters:
    """Disk device timing (Table 4, left column)."""

    # The disk prices requests as sums of these terms and skips the
    # generic negative-service check, so their domains must hold here.
    avg_seek_ms: float = knob(NON_NEGATIVE_REAL, 10.0)
    settle_controller_ms: float = knob(NON_NEGATIVE_REAL, 3.0)
    per_page_ms: float = knob(NON_NEGATIVE_REAL, 1.0)
    #: Pages a disk can hold; defines the track span behind the
    #: position-dependent seek model (not in Table 4; 4 GB of 4 KB pages).
    capacity_pages: int = knob(POSITIVE_INT, 1_048_576)
    #: Pages per track for the seek-distance model.
    pages_per_track: int = knob(POSITIVE_INT, 64)

    __post_init__ = check_domains


@dataclass(frozen=True)
class CpuCosts:
    """Instruction counts per operation (Table 4, middle column)."""

    initiate_query: int = knob(NON_NEGATIVE_INT, 50_000)
    terminate_query: int = knob(NON_NEGATIVE_INT, 10_000)
    initiate_subquery: int = knob(NON_NEGATIVE_INT, 10_000)
    terminate_subquery: int = knob(NON_NEGATIVE_INT, 10_000)
    read_page: int = knob(NON_NEGATIVE_INT, 3_000)
    process_bitmap_page: int = knob(NON_NEGATIVE_INT, 1_500)
    extract_table_row: int = knob(NON_NEGATIVE_INT, 100)
    aggregate_table_row: int = knob(NON_NEGATIVE_INT, 100)
    send_message_base: int = knob(NON_NEGATIVE_INT, 1_000)
    receive_message_base: int = knob(NON_NEGATIVE_INT, 1_000)
    #: Instructions per message byte on top of the base cost.
    per_message_byte: int = knob(NON_NEGATIVE_INT, 1)

    __post_init__ = check_domains


@dataclass(frozen=True)
class NetworkParameters:
    """Idealised contention-free network (Table 4, right column)."""

    bandwidth_bits_per_s: float = knob(POSITIVE_REAL, 100e6)
    small_message_bytes: int = knob(NON_NEGATIVE_INT, 128)
    large_message_bytes: int = knob(NON_NEGATIVE_INT, 4096)

    __post_init__ = check_domains


@dataclass(frozen=True)
class BufferParameters:
    """Buffer manager settings (Table 4, right column)."""

    # The work expander divides by the page size and the fact granule,
    # and steps through bitmap extents one granule at a time, so those
    # three are at least one.
    page_size: int = knob(POSITIVE_INT, 4096)
    fact_buffer_pages: int = knob(NON_NEGATIVE_INT, 1_000)
    bitmap_buffer_pages: int = knob(NON_NEGATIVE_INT, 5_000)
    prefetch_fact_pages: int = knob(POSITIVE_INT, 8)
    prefetch_bitmap_pages: int = knob(POSITIVE_INT, 5)
    #: Table 6 marks the bitmap granule "(var.)": it shrinks to the
    #: bitmap-fragment size when fragments are smaller than the granule.
    adaptive_bitmap_prefetch: bool = knob(FLAG, True)

    __post_init__ = check_domains


@dataclass(frozen=True)
class HardwareParameters:
    """Machine configuration: varied per experiment (Tables 4 and 5)."""

    n_disks: int = knob(POSITIVE_INT, 100)
    n_nodes: int = knob(POSITIVE_INT, 20)
    cpu_mips: float = knob(POSITIVE_REAL, 50.0)
    #: Maximum concurrent subqueries per node ("t"); the coordinator
    #: node runs t-1 because coordination counts as one task.
    subqueries_per_node: int = knob(POSITIVE_INT, 4)

    __post_init__ = check_domains


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

    arrival_process: str = knob(ARRIVAL_PROCESS, "poisson")
    arrival_rate_qps: float = knob(POSITIVE_REAL, 1.0)
    burst_size: int = knob(POSITIVE_INT, 4)
    max_mpl: int | None = knob(optional(POSITIVE_INT), None)
    think_time_s: float = knob(NON_NEGATIVE_REAL, 0.0)

    __post_init__ = check_domains


@dataclass(frozen=True)
class SimulationParameters:
    """Everything a simulation run needs besides schema and workload."""

    hardware: HardwareParameters = nested(HardwareParameters)
    disk: DiskParameters = nested(DiskParameters)
    cpu_costs: CpuCosts = nested(CpuCosts)
    network: NetworkParameters = nested(NetworkParameters)
    buffer: BufferParameters = nested(BufferParameters)
    #: Open-system workload shape; only consulted by
    #: :meth:`ParallelWarehouseSimulator.run_open_system`.
    workload: WorkloadParameters = nested(WorkloadParameters)

    #: Subqueries read bitmap fragments of one fact fragment in parallel
    #: (Section 6.2's default); False serialises them for the ablation.
    parallel_bitmap_io: bool = knob(FLAG, True)
    #: Staggered round robin (Figure 2): bitmap fragments of one fact
    #: fragment go to consecutive distinct disks.  False co-locates them,
    #: which makes parallel bitmap I/O ineffective.
    staggered_allocation: bool = knob(FLAG, True)
    #: "round_robin" (paper default) or "gap" — Section 4.6's shifted
    #: scheme that avoids gcd clustering for stride-structured queries.
    allocation_scheme: str = knob(ALLOCATION_SCHEME, "round_robin")
    #: Section 6.3's remedy for over-fine fragmentations: this many
    #: consecutive fragments form one allocation/subquery unit whose
    #: sub-page bitmap fragments pack into whole pages.
    cluster_factor: int = knob(POSITIVE_INT, 1)
    #: Zipf exponent for data skew across fragments (Section 7 future
    #: work): 0 = the paper's uniform distribution; larger values make
    #: some fragments hold disproportionately many fact rows, stressing
    #: the load balancing.  Fragment ranks are permuted by `seed` so the
    #: skew does not align with the allocation order.
    data_skew: float = knob(NON_NEGATIVE_REAL, 0.0)
    #: Merge up to this many consecutive same-disk granule reads of one
    #: subquery into a single disk request (service time is the sum of
    #: the individual services, so aggregate utilisation is unchanged).
    #: Purely an event-count control; 1 = fully faithful.
    io_coalesce: int = knob(POSITIVE_INT, 1)
    #: Optional global cap on concurrent subqueries across all nodes
    #: (the "degree of parallelism" axis of Figure 6); None = only the
    #: per-node limit applies.  A cap of zero would admit no subquery.
    max_concurrent_subqueries: int | None = knob(optional(POSITIVE_INT), None)
    #: Record retention for the run's :class:`SimulationResult`:
    #: ``"full"`` keeps per-query records and per-stream rollups (the
    #: historical behaviour), ``"bounded"`` folds each query into the
    #: streaming aggregates and drops the record, so memory stays O(1)
    #: in the query count (warehouse-scale open runs).  A scheduling
    #: knob: it never changes the simulated physics.
    record_retention: str = knob(RECORD_RETENTION, "full")
    #: Seed for the (small) stochastic choices: coordinator node and
    #: query parameter selection.  Never negative: ``random.Random(-s)``
    #: replays ``random.Random(s)`` under a different config hash.
    seed: int = knob(NON_NEGATIVE_INT, 0)

    def __post_init__(self) -> None:
        check_domains(self)
        if self.data_skew > 0 and self.cluster_factor > 1:
            raise ValueError(
                "data_skew and cluster_factor cannot be combined (yet)"
            )

    def with_hardware(self, **kwargs) -> "SimulationParameters":
        """A copy with hardware fields replaced (d, p, t sweeps)."""
        return replace(self, hardware=replace(self.hardware, **kwargs))
