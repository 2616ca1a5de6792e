"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one experiment of the paper (a figure or
table) or a beyond-paper configuration, and expands into a matrix of
:class:`RunSpec` points.  Each point is a fully self-contained, hashable
description of one simulation (or analytic evaluation): schema scale,
fragmentation, hardware counts, allocation knobs, skew, multi-user
streams and seed.  Everything downstream — the ``repro bench`` CLI, the
``benchmarks/`` figure regenerations and the examples — consumes these
specs instead of hand-rolled parameter tables.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable

from repro.mdhf.spec import Fragmentation
from repro.sim.config import (
    ALLOCATION_SCHEME,
    ARRIVAL_PROCESS,
    FLAG,
    NON_NEGATIVE_INT,
    NON_NEGATIVE_REAL,
    POSITIVE_INT,
    POSITIVE_REAL,
    RECORD_RETENTION,
    TEXT,
    Domain,
    SimulationParameters,
    WorkloadParameters,
    check_domains,
    knob,
    optional,
)

#: Kinds of scenarios.
KIND_SIMULATION = "simulation"  # RunSpecs executed on the event simulator
KIND_ANALYTIC = "analytic"      # RunSpecs evaluated with the I/O cost model
KIND_STATIC = "static"          # no runs; a registered static evaluator

#: Run execution modes.
MODE_SIM = "sim"
MODE_MULTI_USER = "multi_user"
MODE_OPEN_SYSTEM = "open_system"
MODE_ANALYTIC = "analytic"
_RUN_MODES = (MODE_SIM, MODE_MULTI_USER, MODE_OPEN_SYSTEM, MODE_ANALYTIC)

#: Event-count control used by the sweeps; <0.5% response-time effect
#: (validated in tests/sim/test_simulator.py).
DEFAULT_IO_COALESCE = 8

#: RunSpec fields that only exist for MODE_OPEN_SYSTEM.  They entered
#: the schema after the first goldens were committed, so config_dict()
#: includes them only for open-system runs — every pre-existing run
#: point keeps its original config_hash (and the committed BENCH
#: fingerprints stay valid).  The field names and defaults mirror
#: WorkloadParameters exactly (RunSpec declares the same defaults).
_OPEN_SYSTEM_DEFAULTS = asdict(WorkloadParameters())
_OPEN_SYSTEM_FIELDS = tuple(_OPEN_SYSTEM_DEFAULTS)


@dataclass(frozen=True)
class RunSpec:
    """One point of a scenario matrix.

    Frozen and built only from primitives so it pickles cleanly into
    ``multiprocessing`` workers and hashes canonically.  Its fields
    declare their domains with the :mod:`repro.sim.config` table.
    """

    run_id: str = knob(TEXT)
    query: str = knob(TEXT)
    fragmentation: tuple[str, ...] = knob(Domain("instance", cls=tuple))
    mode: str = knob(Domain("choice", choices=_RUN_MODES), MODE_SIM)
    #: Free-form grouping tag (e.g. the fragmentation label of Figure 6).
    label: str = knob(TEXT, "")

    # --- schema scale -------------------------------------------------
    schema: str = knob(Domain("choice", choices=("apb1", "tiny")), "apb1")
    channels: int = knob(POSITIVE_INT, 15)
    density: float = knob(POSITIVE_REAL, 0.25)

    # --- hardware -----------------------------------------------------
    n_disks: int = knob(POSITIVE_INT, 100)
    n_nodes: int = knob(POSITIVE_INT, 20)
    t: int = knob(POSITIVE_INT, 4)  # concurrent subqueries per node

    # --- allocation / execution knobs --------------------------------
    parallel_bitmap_io: bool = knob(FLAG, True)
    staggered_allocation: bool = knob(FLAG, True)
    allocation_scheme: str = knob(ALLOCATION_SCHEME, "round_robin")
    cluster_factor: int = knob(POSITIVE_INT, 1)
    data_skew: float = knob(NON_NEGATIVE_REAL, 0.0)
    max_concurrent: int | None = knob(optional(POSITIVE_INT), None)
    io_coalesce: int = knob(POSITIVE_INT, DEFAULT_IO_COALESCE)

    # --- beyond-paper degradations -----------------------------------
    #: Multiplier on every disk timing parameter; 2.0 models a disk
    #: subsystem running at half speed (failed spindles, rebuilds).
    disk_degradation: float = knob(Domain("real", lo=1.0), 1.0)

    # --- multi-user / open-system sessions ---------------------------
    streams: int = knob(POSITIVE_INT, 1)
    queries_per_stream: int = knob(POSITIVE_INT, 1)
    #: Seed stride between streams so the streams draw distinct query
    #: parameters (seed + stride * stream + query).
    stream_seed_stride: int = knob(NON_NEGATIVE_INT, 17)

    # --- open-system mode (MODE_OPEN_SYSTEM only) --------------------
    #: Interarrival distribution: "poisson" | "fixed" | "bursty".
    arrival_process: str = knob(ARRIVAL_PROCESS, "poisson")
    #: Offered load in arriving sessions per second.
    arrival_rate_qps: float = knob(POSITIVE_REAL, 1.0)
    #: Arrivals per batch for the bursty process.
    burst_size: int = knob(POSITIVE_INT, 4)
    #: Admission-control MPL cap; None = admit everything immediately.
    max_mpl: int | None = knob(optional(POSITIVE_INT), None)
    #: Mean exponential think time between a session's queries (hybrid).
    think_time_s: float = knob(NON_NEGATIVE_REAL, 0.0)

    #: Record retention for the run's SimulationResult: "full" keeps
    #: per-query records and per-stream rollups; "bounded" folds every
    #: query into the streaming aggregates and drops the record, so
    #: memory stays O(1) in the query count (the warehouse-scale mode).
    #: A scheduling knob — it never changes the simulated physics.
    #: Like the open-system fields, it entered the schema after goldens
    #: were committed: config_dict() includes it only at non-default
    #: values, so every pre-existing run point hashes exactly as before.
    record_retention: str = knob(RECORD_RETENTION, "full")

    seed: int = knob(NON_NEGATIVE_INT, 0)

    def __post_init__(self) -> None:
        check_domains(self)
        try:
            self.parsed_fragmentation()
        except ValueError as exc:
            raise ValueError(
                f"fragmentation {self.fragmentation!r}: {exc}"
            ) from None
        if self.mode != MODE_OPEN_SYSTEM:
            # The open-system knobs stay out of config_dict() for other
            # modes (hash stability), so they must hold their defaults
            # there — a non-default value would silently not hash.
            for name in _OPEN_SYSTEM_FIELDS:
                if getattr(self, name) != _OPEN_SYSTEM_DEFAULTS[name]:
                    raise ValueError(
                        f"{name} requires mode={MODE_OPEN_SYSTEM!r}"
                    )
        if (
            self.record_retention != "full"
            and self.mode not in (MODE_MULTI_USER, MODE_OPEN_SYSTEM)
        ):
            # Single-user/analytic metrics read individual records
            # (e.g. the per-query I/O breakdown), so bounded retention
            # only makes sense where aggregates are the whole payload.
            raise ValueError(
                "record_retention='bounded' requires mode "
                f"{MODE_MULTI_USER!r} or {MODE_OPEN_SYSTEM!r}"
            )

    # -----------------------------------------------------------------
    def parsed_fragmentation(self) -> Fragmentation:
        return Fragmentation.parse(*self.fragmentation)

    def workload_params(self) -> WorkloadParameters:
        """The open-system workload shape this run point describes."""
        return WorkloadParameters(
            arrival_process=self.arrival_process,
            arrival_rate_qps=self.arrival_rate_qps,
            burst_size=self.burst_size,
            max_mpl=self.max_mpl,
            think_time_s=self.think_time_s,
        )

    def sim_params(self) -> SimulationParameters:
        """The simulator configuration this run point describes."""
        params = SimulationParameters().with_hardware(
            n_disks=self.n_disks,
            n_nodes=self.n_nodes,
            subqueries_per_node=self.t,
        )
        params = replace(
            params,
            parallel_bitmap_io=self.parallel_bitmap_io,
            staggered_allocation=self.staggered_allocation,
            allocation_scheme=self.allocation_scheme,
            cluster_factor=self.cluster_factor,
            data_skew=self.data_skew,
            max_concurrent_subqueries=self.max_concurrent,
            io_coalesce=self.io_coalesce,
            seed=self.seed,
        )
        if self.mode == MODE_OPEN_SYSTEM:
            params = replace(params, workload=self.workload_params())
        if self.record_retention != "full":
            params = replace(params, record_retention=self.record_retention)
        if self.disk_degradation != 1.0:
            d = params.disk
            params = replace(
                params,
                disk=replace(
                    d,
                    avg_seek_ms=d.avg_seek_ms * self.disk_degradation,
                    settle_controller_ms=(
                        d.settle_controller_ms * self.disk_degradation
                    ),
                    per_page_ms=d.per_page_ms * self.disk_degradation,
                ),
            )
        return params

    def config_dict(self) -> dict:
        """JSON-ready canonical description of this run point.

        Open-system knobs appear only for open-system runs (they are
        rejected at non-default values elsewhere), so pre-existing run
        points hash exactly as before the knobs were introduced.
        """
        config = asdict(self)
        config["fragmentation"] = list(self.fragmentation)
        if self.mode != MODE_OPEN_SYSTEM:
            for name in _OPEN_SYSTEM_FIELDS:
                del config[name]
        if self.record_retention == "full":
            # Default retention stays out of the hash for the same
            # reason the open-system knobs do: pre-existing run points
            # must keep their committed config_hash.
            del config["record_retention"]
        return config

    def config_hash(self) -> str:
        """Stable hash of the configuration (not of any results)."""
        canonical = json.dumps(self.config_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, registered experiment: metadata plus a run matrix."""

    name: str
    title: str
    kind: str = KIND_SIMULATION
    #: Which paper artefact this regenerates ("fig3".."fig6",
    #: "table1".."table6") or None for beyond-paper scenarios.
    figure: str | None = None
    description: str = ""
    runs: tuple[RunSpec, ...] = ()
    #: run_ids forming the reduced sweep; empty = fast mode runs all.
    fast_run_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SIMULATION, KIND_ANALYTIC, KIND_STATIC):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        ids = [run.run_id for run in self.runs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate run_ids in scenario {self.name!r}")
        unknown = set(self.fast_run_ids) - set(ids)
        if unknown:
            raise ValueError(
                f"fast_run_ids not in scenario {self.name!r}: {sorted(unknown)}"
            )

    def expand(self, fast: bool = False) -> tuple[RunSpec, ...]:
        """The run matrix, optionally reduced to the fast subset."""
        if fast and self.fast_run_ids:
            wanted = set(self.fast_run_ids)
            return tuple(run for run in self.runs if run.run_id in wanted)
        return self.runs

    @property
    def run_ids(self) -> tuple[str, ...]:
        return tuple(run.run_id for run in self.runs)


def grid(base: RunSpec, axes: dict[str, Iterable], id_format: str) -> list[RunSpec]:
    """Expand a cartesian product of field overrides into RunSpecs.

    ``axes`` maps RunSpec field names to value lists; ``id_format`` is a
    ``str.format`` template over those field names, e.g. ``"d{n_disks}_p{n_nodes}"``.
    """
    points: list[dict] = [{}]
    for name, values in axes.items():
        points = [dict(p, **{name: v}) for p in points for v in values]
    return [
        replace(base, run_id=id_format.format(**point), **point)
        for point in points
    ]
