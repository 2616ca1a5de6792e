"""Assert that bounded retention makes run memory flat in query count.

The streaming metrics core claims a warehouse-scale open-system run
costs O(1) metric memory per query under ``record_retention="bounded"``.
This script *measures* the claim with ``tracemalloc``: it executes the
warehouse simulation at two session counts a factor ``--scale-ratio``
apart (database build excluded from tracing — it is scale-independent)
and fails unless the traced peak at the large scale stays within
``--max-growth`` of the small scale.  Full retention is measured at the
same two scales for contrast (expected to grow roughly linearly) but is
reported only, never asserted — its growth is the baseline the bounded
mode exists to remove.

CI (perf-smoke) runs this on every PR:

    PYTHONPATH=src python benchmarks/check_bounded_memory.py \
        --small 1000 --large 10000 --out bounded_memory.json

Exit status is non-zero when the bounded-mode growth bound is violated.

``--expansion`` checks the work expander instead: it fully drains
``SimulatedDatabase.iter_subquery_work`` for the ``cluster32`` plan
(345,600 selected fragments in 10,800 cluster subqueries) under
``tracemalloc``, with the database build and planning excluded, and
fails when the traced peak exceeds ``MAX_EXPANSION_MIB``.  The
expander emits its units block by block, so the peak is the plan's
fragment id array plus one block; CI runs it next to the retention
check:

    PYTHONPATH=src python benchmarks/check_bounded_memory.py \
        --expansion --out expansion_memory.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import tracemalloc
from dataclasses import replace

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import _database_for, _schema_for
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type


def _warehouse_run(streams: int, retention: str, stream_shards: int = 1):
    """A warehouse_scale run point resized to ``streams`` sessions."""
    base = get_scenario("warehouse_scale").runs[0]
    return replace(
        base,
        run_id=f"mem_{retention}_{streams}",
        streams=streams,
        record_retention=retention,
        stream_shards=stream_shards,
    )


def measure(streams: int, retention: str, stream_shards: int = 1) -> dict:
    """Traced peak metric memory (KiB) of one open-system run.

    With ``stream_shards > 1`` each session slice is simulated and
    traced separately (``tracemalloc.reset_peak`` between slices) and
    folded incrementally, so ``traced_peak_kib`` is the footprint one
    stream-shard *worker* would hold — the per-worker flatness evidence
    — and ``per_shard_peak_kib`` lists every slice.
    """
    run = _warehouse_run(streams, retention, stream_shards)
    schema = _schema_for(run)
    # The database/simulator build allocates a scale-independent chunk;
    # keep it outside the traced window so the measurement isolates the
    # per-query growth the retention knob controls.
    simulator = ParallelWarehouseSimulator(
        schema,
        run.parsed_fragmentation(),
        run.sim_params(),
        database=_database_for(run, schema),
    )
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

    started = time.perf_counter()
    per_shard: list[float] | None = None
    tracemalloc.start()
    try:
        if stream_shards == 1:
            result = simulator.run_open_system(
                run.streams, run.workload_params(),
                query_factory=session_queries,
            )
            _, peak = tracemalloc.get_traced_memory()
        else:
            from repro.sim.metrics import SimulationResult
            from repro.workload.arrivals import partition_sessions

            merged = SimulationResult(retention=retention)
            per_shard = []
            for session_slice in partition_sessions(streams, stream_shards):
                tracemalloc.reset_peak()
                merged = merged.merge(
                    simulator.run_open_system(
                        run.streams, run.workload_params(),
                        query_factory=session_queries,
                        session_slice=session_slice,
                    )
                )
                _, shard_peak = tracemalloc.get_traced_memory()
                per_shard.append(round(shard_peak / 1024, 1))
            result = merged
            peak = max(per_shard) * 1024
    finally:
        tracemalloc.stop()
    measurement = {
        "sessions": streams,
        "retention": retention,
        "stream_shards": stream_shards,
        "query_count": result.query_count,
        "records_retained": result.records_retained,
        "traced_peak_kib": round(peak / 1024, 1),
        "wall_clock_s": round(time.perf_counter() - started, 2),
    }
    if per_shard is not None:
        measurement["per_shard_peak_kib"] = per_shard
    return measurement


# Largest allowed traced peak of the --expansion check.  Block-wise
# expansion measures about 3.1 MiB on cluster32; an expander that builds
# its rows for the whole plan measured 33.9 MiB.
MAX_EXPANSION_MIB = 12.0


def measure_expansion() -> dict:
    """Traced peak (MiB) of draining the cluster32 work expansion.

    The database is built and the query planned before tracing starts,
    so the peak is what the expansion itself holds.  No unit is kept.
    """
    run = next(
        run
        for run in get_scenario("ablation_fragment_clustering").runs
        if run.run_id == "cluster32"
    )
    schema = _schema_for(run)
    database = _database_for(run, schema)
    query = query_type(run.query).instantiate(schema, random.Random(run.seed))
    plan = database.plan(query)
    started = time.perf_counter()
    units = 0
    tracemalloc.start()
    try:
        for _work in database.iter_subquery_work(plan):
            units += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "run_id": run.run_id,
        "selected_fragments": plan.fragment_count,
        "units": units,
        "traced_peak_mib": round(peak / 2**20, 2),
        "wall_clock_s": round(time.perf_counter() - started, 2),
    }


def check_expansion(out: str | None) -> int:
    report = measure_expansion()
    report["max_allowed_mib"] = MAX_EXPANSION_MIB
    print(json.dumps(report, indent=2))
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    peak = report["traced_peak_mib"]
    if peak > MAX_EXPANSION_MIB:
        print(
            f"FAIL: draining the {report['run_id']} expansion peaked at "
            f"{peak:.1f} MiB (allowed {MAX_EXPANSION_MIB} MiB)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: draining the {report['run_id']} expansion peaked at "
        f"{peak:.1f} MiB"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", type=int, default=1000,
                        help="session count of the small run (default 1000)")
    parser.add_argument("--large", type=int, default=10000,
                        help="session count of the large run (default 10000)")
    parser.add_argument(
        "--max-growth", type=float, default=2.0,
        help="largest allowed bounded-mode peak ratio large/small "
             "(default 2.0; the query count grows by large/small — "
             "measured: bounded ~1.5x then flat, full ~5.8x, at 10x)",
    )
    parser.add_argument("--out", default=None,
                        help="also write the measurements to this JSON file")
    parser.add_argument(
        "--skip-full", action="store_true",
        help="measure only bounded retention (halves the runtime)",
    )
    parser.add_argument(
        "--stream-shards", type=int, default=1, metavar="N",
        help="partition each run's session axis into N stream shards; "
             "every shard is traced separately, so the reported peak is "
             "one worker's footprint (default 1 = the serial run)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="declared stream-shard worker budget; validated against "
             "this host's CPU count (the measurement itself runs each "
             "shard in-process precisely so the traced peak is exactly "
             "one worker's footprint)",
    )
    parser.add_argument(
        "--expansion", action="store_true",
        help="check the work expander instead of retention: drain the "
             "cluster32 expansion under tracemalloc",
    )
    args = parser.parse_args(argv)
    if args.expansion:
        return check_expansion(args.out)
    if args.large <= args.small:
        print("error: --large must exceed --small", file=sys.stderr)
        return 2
    if args.stream_shards < 1 or args.jobs < 1:
        print("error: --stream-shards and --jobs must be >= 1",
              file=sys.stderr)
        return 2
    from repro.scenarios.shard import stream_oversubscription_error

    problem = stream_oversubscription_error(args.jobs, args.stream_shards)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    measurements = [
        measure(args.small, "bounded", args.stream_shards),
        measure(args.large, "bounded", args.stream_shards),
    ]
    if not args.skip_full:
        measurements.append(measure(args.small, "full", args.stream_shards))
        measurements.append(measure(args.large, "full", args.stream_shards))

    by_key = {(m["retention"], m["sessions"]): m for m in measurements}
    bounded_growth = (
        by_key[("bounded", args.large)]["traced_peak_kib"]
        / by_key[("bounded", args.small)]["traced_peak_kib"]
    )
    report = {
        "scale_ratio": round(args.large / args.small, 2),
        "stream_shards": args.stream_shards,
        "bounded_peak_growth": round(bounded_growth, 3),
        "max_allowed_growth": args.max_growth,
        "measurements": measurements,
    }
    if not args.skip_full:
        report["full_peak_growth"] = round(
            by_key[("full", args.large)]["traced_peak_kib"]
            / by_key[("full", args.small)]["traced_peak_kib"],
            3,
        )

    print(json.dumps(report, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if bounded_growth > args.max_growth:
        print(
            f"FAIL: bounded-retention peak grew {bounded_growth:.2f}x over "
            f"a {args.large / args.small:.0f}x query-count increase "
            f"(allowed {args.max_growth}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: bounded-retention peak grew {bounded_growth:.2f}x over a "
        f"{args.large / args.small:.0f}x query-count increase"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
