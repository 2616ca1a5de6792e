"""Scenario execution and machine-readable BENCH reports.

:class:`ScenarioRunner` expands a registered scenario into its run
matrix, executes the points — serially or across a ``multiprocessing``
pool — and assembles a :class:`BenchReport` that serialises to
``BENCH_<scenario>.json``.  The report separates *metrics* (fully
deterministic under a fixed seed: response times, I/O counts,
utilisations) from *wall-clock* measurements, and carries a per-run
``config_hash`` plus a whole-report ``metrics_fingerprint`` so the
performance trajectory stays comparable and diffable across PRs.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import time
import traceback
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.scenarios.spec import (
    KIND_STATIC,
    MODE_ANALYTIC,
    MODE_MULTI_USER,
    MODE_OPEN_SYSTEM,
    MODE_SIM,
    RunSpec,
    ScenarioSpec,
)

#: Version of the BENCH_*.json layout; bump on breaking changes.
#:
#: v2: the ``metrics_fingerprint`` pins only *physically meaningful*
#: metrics (response times, queue delays, pages read, utilizations,
#: throughput/percentiles).  Engine-internal counters — ``event_count``
#: — still appear in each run's metrics for diagnostics but are excluded
#: from the hashed payload and from golden comparison, so the event
#: loop's internal structure (batching, analytic skips) can change
#: without invalidating goldens.  v1 hashed every metric verbatim.
BENCH_SCHEMA_VERSION = 2

#: Per-run metric keys that describe the simulator's internal event
#: structure rather than the modelled system's physics.  Excluded from
#: ``metrics_fingerprint`` and from :func:`compare_to_golden`.
ENGINE_INTERNAL_METRICS = frozenset({"event_count"})


def physical_metrics(metrics: dict) -> dict:
    """The fingerprint-relevant projection of one run's metrics dict."""
    return {
        key: value
        for key, value in metrics.items()
        if key not in ENGINE_INTERNAL_METRICS
    }

#: Lazily built schemas, shared by all runs of one process (each pool
#: worker builds at most one schema per (name, channels, density)).
_SCHEMA_CACHE: dict[tuple, object] = {}


def _schema_for(run: RunSpec):
    key = (run.schema, run.channels, run.density)
    if key not in _SCHEMA_CACHE:
        from repro.schema.apb1 import apb1_schema, tiny_schema

        if run.schema == "tiny":
            _SCHEMA_CACHE[key] = tiny_schema(density=run.density)
        else:
            _SCHEMA_CACHE[key] = apb1_schema(
                channels=run.channels, density=run.density
            )
    return _SCHEMA_CACHE[key]


#: SimulatedDatabase instances shared across the run points of one
#: process, keyed by :func:`~repro.sim.database.database_fields`: run
#: points that differ only in scheduling knobs (node count, task limit,
#: seed without skew) or disk timings reuse the same database object.
_DATABASE_CACHE: dict[tuple, object] = {}
_DATABASE_CACHE_LIMIT = 64


def _database_for(run: RunSpec, schema):
    from repro.sim.database import SimulatedDatabase, database_fields

    fragmentation = run.parsed_fragmentation()
    params = run.sim_params()
    key = database_fields(schema, fragmentation, params)
    database = _DATABASE_CACHE.get(key)
    if database is None:
        database = SimulatedDatabase(schema, fragmentation, params)
        if len(_DATABASE_CACHE) >= _DATABASE_CACHE_LIMIT:
            _DATABASE_CACHE.clear()
        _DATABASE_CACHE[key] = database
    return database


def _simulator_for(run: RunSpec):
    """The simulator of one run point, on the shared schema and database."""
    from repro.sim.simulator import ParallelWarehouseSimulator

    schema = _schema_for(run)
    database = _database_for(run, schema)
    return ParallelWarehouseSimulator(
        schema, database.fragmentation, run.sim_params(), database=database
    )


def warm_caches(runs: Iterable[RunSpec]) -> list[str]:
    """Build the schema / geometry / database caches for ``runs``.

    Later runs in this process then reuse the built
    :class:`~repro.sim.database.SimulatedDatabase` objects.  Returns one
    :meth:`~repro.sim.database.SimulatedDatabase.describe` line per
    warmed database.
    """
    return [_database_for(run, _schema_for(run)).describe() for run in runs]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one executed run point."""

    run_id: str
    config: dict
    config_hash: str
    #: Deterministic under a fixed seed (no timestamps, no wall-clock).
    metrics: dict
    #: Host wall-clock seconds; excluded from determinism checks.
    wall_clock_s: float
    #: Process peak RSS (KiB) sampled right after the run finished — a
    #: high-water mark of the executing process, so across the runs of
    #: one worker it is monotone.  Diagnostics only: excluded from the
    #: fingerprint and zeroed in stable reports, like wall_clock_s.
    peak_rss_kb: float = 0.0


def _peak_rss_kb() -> float:
    """The process's lifetime peak RSS in KiB (0.0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    import sys

    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        peak /= 1024.0
    return peak


def _round6(value: float) -> float:
    """Stabilise derived ratios against float-formatting noise."""
    return round(value, 6)


def _sim_metrics(run: RunSpec) -> dict:
    from repro.workload.queries import query_type

    simulator = _simulator_for(run)
    query = query_type(run.query).instantiate(
        simulator.database.schema, random.Random(run.seed)
    )
    result = simulator.run([query])
    q = result.queries[0]
    return {
        "response_time_s": q.response_time,
        "subqueries": q.subqueries,
        "fact_io_ops": q.fact_io_ops,
        "fact_pages": q.fact_pages,
        "bitmap_io_ops": q.bitmap_io_ops,
        "bitmap_pages": q.bitmap_pages,
        "total_pages": q.total_pages,
        "coordinator_node": q.coordinator_node,
        "avg_disk_utilization": _round6(result.avg_disk_utilization),
        "avg_cpu_utilization": _round6(result.avg_cpu_utilization),
        "buffer_hits": result.buffer_hits,
        "buffer_misses": result.buffer_misses,
        "event_count": result.event_count,
    }


def _session_query_factory(run: RunSpec, schema):
    """The per-session query factory of multi-user and open-system runs.

    Each session's queries come from their own derived RNG, so the
    factory is byte-identical to materialising every stream up front,
    independent of which process instantiates it.  Multi-user runs call
    it once per stream; open-system runs call it lazily, at each
    session's arrival.
    """
    from repro.workload.queries import query_type

    template = query_type(run.query)

    def session_queries(session: int) -> list:
        return [
            template.instantiate(
                schema,
                random.Random(
                    run.seed + run.stream_seed_stride * session + q
                ),
            )
            for q in range(run.queries_per_stream)
        ]

    return session_queries


def _multi_user_metrics(run: RunSpec) -> dict:
    simulator = _simulator_for(run)
    session_queries = _session_query_factory(run, simulator.database.schema)
    result = simulator.run_multi_user(
        [session_queries(stream) for stream in range(run.streams)]
    )
    return {
        "streams": run.streams,
        "query_count": result.query_count,
        "avg_response_time_s": _round6(result.avg_response_time),
        "max_response_time_s": _round6(result.max_response_time),
        "elapsed_s": _round6(result.elapsed),
        "throughput_qps": _round6(result.query_count / result.elapsed),
        "total_pages": result.total_pages,
        "avg_disk_utilization": _round6(result.avg_disk_utilization),
        "avg_cpu_utilization": _round6(result.avg_cpu_utilization),
        "event_count": result.event_count,
    }


#: Largest stream count whose per-stream rollup is emitted into the
#: metrics payload; beyond it the rollup would dwarf every other key.
_PER_STREAM_METRIC_CAP = 512


def _open_system_metrics(run: RunSpec) -> dict:
    simulator = _simulator_for(run)
    result = simulator.run_open_system(
        run.streams,
        run.workload_params(),
        query_factory=_session_query_factory(run, simulator.database.schema),
    )
    metrics = {
        "sessions": run.streams,
        "query_count": result.query_count,
        "session_arrival_rate_qps": run.arrival_rate_qps,
        # Offered *query* load: sessions arrive at arrival_rate_qps and
        # each issues queries_per_stream queries (think times permitting).
        "offered_load_qps": _round6(
            run.arrival_rate_qps * run.queries_per_stream
        ),
        "throughput_qps": _round6(result.throughput_qps),
        "avg_response_time_s": _round6(result.avg_response_time),
        "p50_response_time_s": _round6(result.response_time_percentile(50)),
        "p95_response_time_s": _round6(result.response_time_percentile(95)),
        "max_response_time_s": _round6(result.max_response_time),
        "avg_queue_delay_s": _round6(result.avg_queue_delay),
        "p95_queue_delay_s": _round6(result.queue_delay_percentile(95)),
        "max_queue_delay_s": _round6(result.max_queue_delay),
        "avg_total_delay_s": _round6(result.avg_total_delay),
        "p95_total_delay_s": _round6(result.total_delay_percentile(95)),
        "peak_mpl": result.peak_mpl,
        "peak_queue_length": result.peak_queue_length,
        "queued_arrivals": result.queued_arrivals,
        "elapsed_s": _round6(result.elapsed),
        "total_pages": result.total_pages,
        "avg_disk_utilization": _round6(result.avg_disk_utilization),
        "avg_cpu_utilization": _round6(result.avg_cpu_utilization),
        "event_count": result.event_count,
    }
    if run.record_retention == "full" and run.streams <= _PER_STREAM_METRIC_CAP:
        # Per-stream rollups exist only while records are retained;
        # the key's presence/absence is part of the (deterministic)
        # metrics payload, so pre-existing goldens are untouched.  Past
        # the cap the dict would dominate the golden file (one entry
        # per session at warehouse scale), so it is omitted — every
        # pre-existing open scenario sits far below the cap.
        metrics["per_stream_avg_response_s"] = {
            str(stream): _round6(stats.avg_response_time)
            for stream, stats in result.per_stream().items()
        }
    else:
        # Deterministic evidence of boundedness, pinned by the
        # fingerprint of the bounded scenarios' goldens.
        metrics["records_retained"] = result.records_retained
        metrics["percentile_source"] = result.percentile_source
    return metrics


def _analytic_metrics(run: RunSpec) -> dict:
    from repro.costmodel.iocost import IOCostParameters, estimate_io
    from repro.mdhf.routing import plan_query
    from repro.workload.queries import query_type

    schema = _schema_for(run)
    query = query_type(run.query).instantiate(schema, random.Random(run.seed))
    plan = plan_query(query, run.parsed_fragmentation(), schema)
    estimate = estimate_io(plan, schema, IOCostParameters())
    return {
        "fragment_count": estimate.fragment_count,
        "fact_io_ops": round(estimate.fact_io_ops),
        "fact_pages": round(estimate.fact_pages),
        "bitmap_pages": round(estimate.bitmap_pages),
        "total_mib": _round6(estimate.total_mib),
    }


_MODE_EXECUTORS = {
    MODE_SIM: _sim_metrics,
    MODE_MULTI_USER: _multi_user_metrics,
    MODE_OPEN_SYSTEM: _open_system_metrics,
    MODE_ANALYTIC: _analytic_metrics,
}


def execute_run(run: RunSpec) -> RunResult:
    """Execute one run point (top-level so pools can pickle it)."""
    started = time.perf_counter()
    metrics = _MODE_EXECUTORS[run.mode](run)
    return RunResult(
        run_id=run.run_id,
        config=run.config_dict(),
        config_hash=run.config_hash(),
        metrics=metrics,
        wall_clock_s=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
    )


# ---------------------------------------------------------------------
# Static scenarios (tables that are parameter sheets, not run matrices)
# ---------------------------------------------------------------------

def _static_table1() -> dict:
    from repro.bitmap.encoded import HierarchicalEncoding
    from repro.schema.apb1 import apb1_schema

    schema = apb1_schema()
    encoding = HierarchicalEncoding(schema.dimension("product").hierarchy)
    return {
        "levels": {
            level.name: {
                "cardinality": level.cardinality,
                "fanout": level.fanout,
                "bits": width,
            }
            for level, width in zip(encoding.hierarchy, encoding.widths)
        },
        "total_bits": encoding.total_width,
    }


def _static_table2() -> dict:
    from repro.mdhf.thresholds import option_counts_by_dimensionality
    from repro.schema.apb1 import apb1_schema

    schema = apb1_schema()
    return {
        f"min_pages_{min_pages}": {
            str(dims): count
            for dims, count in sorted(
                option_counts_by_dimensionality(
                    schema, min_bitmap_pages=min_pages
                ).items()
            )
        }
        for min_pages in (0, 1, 4, 8)
    }


def _static_table4() -> dict:
    from dataclasses import asdict

    from repro.sim.config import SimulationParameters

    params = SimulationParameters()
    return {
        "hardware": asdict(params.hardware),
        "disk": asdict(params.disk),
        "cpu_costs": asdict(params.cpu_costs),
        "network": asdict(params.network),
        "buffer": asdict(params.buffer),
    }


def _static_table6() -> dict:
    from repro.bitmap.sizing import bitmap_fragment_pages
    from repro.costmodel.iocost import IOCostParameters
    from repro.mdhf.spec import Fragmentation
    from repro.schema.apb1 import apb1_schema

    schema = apb1_schema()
    params = IOCostParameters()
    out = {}
    for label, attrs in {
        "F_MonthGroup": ("time::month", "product::group"),
        "F_MonthClass": ("time::month", "product::class"),
        "F_MonthCode": ("time::month", "product::code"),
    }.items():
        n = Fragmentation.parse(*attrs).fragment_count(schema)
        pages = bitmap_fragment_pages(schema.fact_count, n, 4096)
        out[label] = {
            "fragment_count": n,
            "bitmap_fragment_pages": _round6(pages),
            "granule": params.bitmap_granule(pages),
        }
    return out


STATIC_EVALUATORS = {
    "table1_encoding": _static_table1,
    "table2_options": _static_table2,
    "table4_defaults": _static_table4,
    "table6_fragmentations": _static_table6,
}


# ---------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------

@dataclass
class BenchReport:
    """Everything one scenario execution produced."""

    scenario: str
    kind: str
    figure: str | None
    fast: bool
    runs: list[RunResult] = field(default_factory=list)
    derived: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def metrics_projection(self) -> dict:
        """The deterministic part: per-run physical metrics plus config
        hashes.  Engine-internal counters (``event_count``) stay out of
        the projection — see :data:`BENCH_SCHEMA_VERSION`."""
        return {
            result.run_id: {
                "config_hash": result.config_hash,
                "metrics": physical_metrics(result.metrics),
            }
            for result in self.runs
        }

    def metrics_fingerprint(self) -> str:
        canonical = json.dumps(self.metrics_projection(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_json_dict(self, stable: bool = False) -> dict:
        """JSON-ready report; ``stable=True`` zeroes every host
        measurement (wall-clock and peak-RSS fields, plus the derived
        wall_clock/resources blocks) so two same-seed runs serialise
        byte-identically."""
        derived = self.derived
        if stable:
            derived = {
                key: value
                for key, value in derived.items()
                if key not in ("wall_clock", "resources")
            }
        return {
            "bench_schema_version": BENCH_SCHEMA_VERSION,
            "scenario": self.scenario,
            "kind": self.kind,
            "figure": self.figure,
            "fast": self.fast,
            "metrics_fingerprint": self.metrics_fingerprint(),
            "runs": [
                {
                    "run_id": result.run_id,
                    "config": result.config,
                    "config_hash": result.config_hash,
                    "metrics": result.metrics,
                    "wall_clock_s": 0.0 if stable else round(result.wall_clock_s, 3),
                    "peak_rss_kb": 0.0 if stable else round(
                        getattr(result, "peak_rss_kb", 0.0), 1
                    ),
                }
                for result in self.runs
            ],
            "derived": derived,
            "wall_clock_s": 0.0 if stable else round(self.wall_clock_s, 3),
        }

    def to_json(self, stable: bool = False) -> str:
        return (
            json.dumps(self.to_json_dict(stable), indent=2, sort_keys=True)
            + "\n"
        )


def _derived_metrics(runs: list[RunResult]) -> dict:
    """Cross-run comparisons for simulation scenarios.

    Includes a wall-clock block (host seconds, outside the metrics
    fingerprint) so BENCH diffs surface performance regressions of the
    simulator itself, not only model-level changes.
    """
    derived: dict = {}
    if runs:
        derived["wall_clock"] = {
            # repro-lint: disable=DET-FLOAT -- host-side diagnostic;
            # excluded from fingerprints (physical_metrics drops it).
            "total_s": round(sum(r.wall_clock_s for r in runs), 3),
            "max_run_s": round(max(r.wall_clock_s for r in runs), 3),
            "slowest_run": max(runs, key=lambda r: r.wall_clock_s).run_id,
        }
        peak = max(getattr(r, "peak_rss_kb", 0.0) for r in runs)
        if peak > 0:
            # Peak RSS across the executing processes (ru_maxrss is a
            # per-process high-water mark, so under a pool this is the
            # hungriest worker).  Unhashed host diagnostics, like
            # the wall-clock block.
            derived["resources"] = {"peak_rss_kb": round(peak, 1)}
    open_runs = [r for r in runs if "offered_load_qps" in r.metrics]
    if open_runs:
        # Throughput-vs-offered-load curve: the saturation/knee view the
        # open-system scenarios exist for.
        derived["load_curve"] = {
            r.run_id: {
                "offered_qps": r.metrics["offered_load_qps"],
                "completed_qps": r.metrics["throughput_qps"],
                "p95_total_delay_s": r.metrics["p95_total_delay_s"],
            }
            for r in open_runs
        }
    timed = {
        r.run_id: r.metrics["response_time_s"]
        for r in runs
        if "response_time_s" in r.metrics
    }
    if not timed:
        return derived
    slowest = max(timed.values())
    fastest = min(timed.values())
    derived.update(
        {
            "slowest_run": max(timed, key=timed.get),
            "fastest_run": min(timed, key=timed.get),
            "speedup_vs_slowest": {
                run_id: _round6(slowest / value)
                for run_id, value in timed.items()
            },
            "response_spread": _round6(slowest / fastest) if fastest else None,
        }
    )
    return derived


def _pool_context():
    """The multiprocessing context for the run-point pool.

    ``fork`` on Linux, so workers start without re-importing the
    package.  Only Linux gets the override: macOS lists ``fork`` but
    forking after system frameworks load is documented unsafe there
    (CPython's own default moved to ``spawn`` in 3.8).  Everywhere else
    the platform default applies.  Either way each worker builds the
    schema and database caches its run points need.
    """
    import sys

    if (
        sys.platform == "linux"
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class RunExecutionError(RuntimeError):
    """A run point failed; ``run_id`` names it."""

    def __init__(self, message: str, run_id: str):
        # Both values in ``args``, so the error pickles out of a worker.
        super().__init__(message, run_id)
        self.run_id = run_id

    def __str__(self) -> str:
        return self.args[0]


def _execute_named(run: RunSpec) -> RunResult:
    """:func:`execute_run`, re-raising a failure as :class:`RunExecutionError`.

    Top-level so pools can pickle it.  The message carries the failing
    ``run_id`` and the original traceback, which a pool cannot send back
    as live frames.
    """
    try:
        return execute_run(run)
    except Exception as exc:
        raise RunExecutionError(
            f"run point {run.run_id!r} failed: {type(exc).__name__}: "
            f"{exc}\n{traceback.format_exc()}",
            run.run_id,
        ) from exc


class ScenarioRunner:
    """Expand a scenario's matrix and execute it, one task per run point.

    ``jobs == 1`` executes the points in order in this process;
    ``jobs > 1`` submits every point to one process pool.  Results come
    back in run order either way, so ``metrics_fingerprint`` is
    byte-identical for any ``jobs`` count.
    """

    def __init__(
        self,
        scenario: ScenarioSpec | str,
        fast: bool = False,
        seed: int | None = None,
        run_ids: list[str] | None = None,
        jobs: int = 1,
        seeds: list[int] | None = None,
        on_run=None,
    ):
        if isinstance(scenario, str):
            from repro.scenarios.registry import get_scenario

            scenario = get_scenario(scenario)
        if seed is not None and seeds is not None:
            raise ValueError("pass either seed or seeds, not both")
        self.scenario = scenario
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        if seeds is not None:
            seeds = list(seeds)
            if not seeds:
                raise ValueError("seeds must name at least one seed")
            if len(set(seeds)) != len(seeds):
                raise ValueError(
                    f"seeds must be distinct (got {seeds}); duplicate "
                    f"replicas would collapse into one run_id"
                )
        self.fast = fast
        self.seed = seed
        self.seeds = seeds
        self.run_ids = run_ids
        #: Optional ``callback(done, total, result)`` fired as each run
        #: point completes (completion order, not run order).
        self.on_run = on_run
        if self.scenario.kind != KIND_STATIC:
            # Validate the run selection eagerly: unknown run ids and an
            # empty selection raise ValueError here, in the caller's
            # stack frame, instead of mid-sweep (or — for an empty
            # ``run_ids`` list — silently producing a zero-run report).
            self._runs()

    def _runs(self) -> list[RunSpec]:
        from dataclasses import replace

        runs = list(self.scenario.expand(fast=self.fast))
        if self.run_ids is not None:
            known = {run.run_id for run in runs}
            unknown = [rid for rid in self.run_ids if rid not in known]
            if unknown:
                raise ValueError(
                    f"unknown run ids for scenario "
                    f"{self.scenario.name!r}: {unknown}; known: {sorted(known)}"
                )
            wanted = set(self.run_ids)
            runs = [run for run in runs if run.run_id in wanted]
        if self.seed is not None:
            runs = [replace(run, seed=self.seed) for run in runs]
        if self.seeds is not None:
            # Multi-seed replication: the run x seed product, with the
            # seed spelled into the run_id.
            runs = [
                replace(run, run_id=f"{run.run_id}_s{seed}", seed=seed)
                for run in runs
                for seed in self.seeds
            ]
        if not runs:
            raise ValueError(
                f"scenario {self.scenario.name!r} selected no run points "
                f"(run_ids={self.run_ids!r}, fast={self.fast}); a report "
                f"must cover at least one run"
            )
        return runs

    def _completed(self, done: int, total: int, result: RunResult) -> None:
        if self.on_run is not None:
            self.on_run(done, total, result)

    def execute(self, runs: list[RunSpec]) -> list[RunResult]:
        """Execute ``runs`` and return their results in run order.

        Raises :class:`RunExecutionError` naming the first failing run
        point; in this process it chains the original exception.
        """
        if self.jobs == 1 or len(runs) == 1:
            results = []
            for run in runs:
                results.append(_execute_named(run))
                self._completed(len(results), len(runs), results[-1])
            return results
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        # ProcessPoolExecutor (not multiprocessing.Pool) so that a
        # worker dying abruptly — OOM kill, segfault — raises
        # BrokenProcessPool instead of hanging the iteration forever.
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(runs)), mp_context=_pool_context()
        ) as pool:
            futures = {pool.submit(_execute_named, run): run for run in runs}
            results = {}
            try:
                for future in as_completed(futures):
                    results[future] = future.result()
                    self._completed(len(results), len(runs), results[future])
            except RunExecutionError:
                # Don't queue the rest of the sweep behind a known
                # failure (in-flight runs still finish; the executor
                # cannot kill running workers).
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            except BrokenProcessPool as exc:
                # Order matters: exception() raises on a cancelled
                # future and blocks on a pending one.
                unfinished = [
                    run.run_id
                    for future, run in futures.items()
                    if future.cancelled()
                    or not future.done()
                    or future.exception() is not None
                ]
                raise RunExecutionError(
                    f"a worker process died abruptly (out of memory? "
                    f"killed?) with {len(unfinished)} run point(s) "
                    f"unfinished: {', '.join(unfinished)}",
                    unfinished[0],
                ) from exc
        return [results[future] for future in futures]

    def run(self) -> BenchReport:
        started = time.perf_counter()
        report = BenchReport(
            scenario=self.scenario.name,
            kind=self.scenario.kind,
            figure=self.scenario.figure,
            fast=self.fast,
        )
        if self.scenario.kind == KIND_STATIC:
            evaluator = STATIC_EVALUATORS[self.scenario.name]
            run_started = time.perf_counter()
            metrics = evaluator()
            report.runs.append(
                RunResult(
                    run_id="static",
                    config={},
                    config_hash="static",
                    metrics=metrics,
                    wall_clock_s=time.perf_counter() - run_started,
                    peak_rss_kb=_peak_rss_kb(),
                )
            )
        else:
            report.runs.extend(self.execute(self._runs()))
            report.derived = _derived_metrics(report.runs)
        report.wall_clock_s = time.perf_counter() - started
        return report


def compare_to_golden(report: BenchReport, golden: dict) -> list[str]:
    """Differences between a report and a golden BENCH report dict.

    Compares per-run config hashes and metrics for the runs the report
    executed — the report may cover a subset of the golden's run matrix
    (``repro bench --runs``).  When the report covers every golden run,
    the whole-report ``metrics_fingerprint`` is compared too.  Returns
    human-readable difference strings; an empty list means the report
    matches the golden.
    """
    problems = []
    golden_runs = {entry["run_id"]: entry for entry in golden.get("runs", [])}
    for result in report.runs:
        entry = golden_runs.get(result.run_id)
        if entry is None:
            problems.append(f"run {result.run_id!r} not in the golden report")
            continue
        if entry["config_hash"] != result.config_hash:
            problems.append(
                f"run {result.run_id!r}: config_hash "
                f"{result.config_hash} != golden {entry['config_hash']}"
            )
        golden_physical = physical_metrics(entry["metrics"])
        report_physical = physical_metrics(result.metrics)
        if golden_physical != report_physical:
            keys = sorted(
                key
                for key in set(golden_physical) | set(report_physical)
                if golden_physical.get(key) != report_physical.get(key)
            )
            problems.append(
                f"run {result.run_id!r}: metrics differ on {keys}"
            )
    if not problems and len(report.runs) == len(golden_runs):
        if report.metrics_fingerprint() != golden.get("metrics_fingerprint"):
            problems.append("metrics_fingerprint differs")
    return problems


def golden_filename(scenario_name: str, fast: bool) -> str:
    """The committed-golden naming convention under ``benchmarks/results``.

    Fast (reduced-sweep) goldens carry a ``_fast`` suffix; full-matrix
    goldens (the smoke scenarios, static/analytic tables) do not.
    """
    suffix = "_fast" if fast else ""
    return f"BENCH_{scenario_name}{suffix}.json"


def write_report(report: BenchReport, path: str, stable: bool = False) -> None:
    with open(path, "w") as handle:
        handle.write(report.to_json(stable))


def validate_report(data: dict) -> None:
    """Raise ValueError unless ``data`` is a well-formed BENCH report."""

    def require(condition: bool, message: str) -> None:
        if not condition:
            raise ValueError(f"invalid BENCH report: {message}")

    require(isinstance(data, dict), "not a JSON object")
    for key in (
        "bench_schema_version",
        "scenario",
        "kind",
        "fast",
        "metrics_fingerprint",
        "runs",
        "derived",
        "wall_clock_s",
    ):
        require(key in data, f"missing key {key!r}")
    require(
        data["bench_schema_version"] == BENCH_SCHEMA_VERSION,
        f"report has schema version {data['bench_schema_version']!r} but "
        f"this build expects {BENCH_SCHEMA_VERSION}; regenerate it with "
        f"'repro bench --regen' (or 'repro bench --regen-all' for every "
        f"scenario)",
    )
    require(isinstance(data["scenario"], str) and data["scenario"],
            "scenario must be a non-empty string")
    require(isinstance(data["runs"], list) and data["runs"],
            "runs must be a non-empty list")
    seen_ids = set()
    for entry in data["runs"]:
        require(isinstance(entry, dict), "run entry is not an object")
        for key in ("run_id", "config", "config_hash", "metrics",
                    "wall_clock_s"):
            require(key in entry, f"run entry missing {key!r}")
        require(entry["run_id"] not in seen_ids,
                f"duplicate run_id {entry['run_id']!r}")
        seen_ids.add(entry["run_id"])
        require(isinstance(entry["metrics"], dict) and entry["metrics"],
                f"run {entry['run_id']!r} has empty metrics")
        require(
            isinstance(entry["wall_clock_s"], (int, float))
            and entry["wall_clock_s"] >= 0,
            f"run {entry['run_id']!r} has invalid wall_clock_s",
        )
        if "peak_rss_kb" in entry:
            # Optional diagnostics: reports written before the field
            # existed (committed goldens) simply lack it.
            require(
                isinstance(entry["peak_rss_kb"], (int, float))
                and entry["peak_rss_kb"] >= 0,
                f"run {entry['run_id']!r} has invalid peak_rss_kb",
            )
    # The fingerprint must match the recomputed projection (physical
    # metrics only — engine-internal counters are not hashed).
    projection = {
        entry["run_id"]: {
            "config_hash": entry["config_hash"],
            "metrics": physical_metrics(entry["metrics"]),
        }
        for entry in data["runs"]
    }
    canonical = json.dumps(projection, sort_keys=True)
    fingerprint = hashlib.sha256(canonical.encode()).hexdigest()
    require(
        data["metrics_fingerprint"] == fingerprint,
        "metrics_fingerprint does not match the runs' metrics",
    )
