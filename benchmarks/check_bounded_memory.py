"""Assert that bounded retention makes run memory flat in query count.

The streaming metrics core claims a warehouse-scale open-system run
costs O(1) metric memory per query under ``record_retention="bounded"``.
This script *measures* the claim with ``tracemalloc``: it executes the
warehouse simulation at two session counts a factor ``--large / --small``
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

``--expansion`` checks the work expander instead.  It fully drains
``SimulatedDatabase.iter_subquery_work`` for three plans under
``tracemalloc``, with the database build and planning excluded:

- ``cluster32``: 345,600 selected fragments in 10,800 cluster
  subqueries (the clustered path);
- ``fig6_1store/class_deg100``: 23,040 single-fragment subqueries with
  12 bitmap reads each (the ``cluster_factor == 1`` path);
- ``fig6_1store/code_deg100``: the same path with 15x the fragments.

It fails when a traced peak exceeds ``MAX_EXPANSION_MIB``, or when the
``code_deg100`` peak exceeds ``MAX_SCALE_RATIO`` times the
``class_deg100`` peak.  The expander decodes one block of fragment ids
at a time and turns bitmap rows into lists only as it emits their
units, so the peak is one block's arrays and rows, whatever the plan
selects.  CI runs it next to the retention check:

    PYTHONPATH=src python benchmarks/check_bounded_memory.py \
        --expansion --out expansion_memory.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tracemalloc
from dataclasses import replace

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import (
    _database_for,
    _schema_for,
    _session_query_factory,
)
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type


def _warehouse_run(streams: int, retention: str):
    """A warehouse_scale run point resized to ``streams`` sessions."""
    base = get_scenario("warehouse_scale").runs[0]
    return replace(
        base,
        run_id=f"mem_{retention}_{streams}",
        streams=streams,
        record_retention=retention,
    )


def measure(streams: int, retention: str) -> dict:
    """Traced peak metric memory (KiB) of one open-system run."""
    run = _warehouse_run(streams, retention)
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
    session_queries = _session_query_factory(run, schema)
    tracemalloc.start()
    try:
        result = simulator.run_open_system(
            run.streams, run.workload_params(), query_factory=session_queries
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "sessions": streams,
        "retention": retention,
        "query_count": result.query_count,
        "records_retained": result.records_retained,
        "traced_peak_kib": round(peak / 1024, 1),
    }


#: ``(scenario, run id)`` of the plans the --expansion check drains.
EXPANSION_PLANS = (
    ("ablation_fragment_clustering", "cluster32"),
    ("fig6_1store", "class_deg100"),
    ("fig6_1store", "code_deg100"),
)

# Largest allowed traced peak of any --expansion plan.  Measured about
# 0.6 MiB on cluster32 and 1.3-1.5 MiB on class_deg100 and code_deg100;
# an expander that built every selected fragment id up front and a
# block's bitmap rows as nested lists measured 3.2, 4.2 and 6.7 MiB,
# and one that built its rows for the whole plan 33.9 MiB on cluster32.
MAX_EXPANSION_MIB = 3.0

# Largest allowed code_deg100 / class_deg100 peak ratio: 15x the
# selected fragments must not cost more memory (measured about 1.1x;
# an up-front id array made it 1.6x).
MAX_SCALE_RATIO = 1.25


def measure_expansion(scenario: str, run_id: str) -> dict:
    """Traced peak (MiB) of draining one run point's work expansion.

    The database is built and the query planned before tracing starts,
    so the peak is what the expansion itself holds.  No unit is kept.
    """
    run = next(run for run in get_scenario(scenario).runs if run.run_id == run_id)
    schema = _schema_for(run)
    database = _database_for(run, schema)
    query = query_type(run.query).instantiate(schema, random.Random(run.seed))
    plan = database.plan(query)
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
        "bitmaps_per_fragment": plan.bitmaps_per_fragment,
        "units": units,
        "traced_peak_mib": round(peak / 2**20, 2),
    }


def judge_expansion(measurements: list[dict]) -> tuple[float, list[str]]:
    """The code/class peak ratio and one message per violated bound."""
    failures = [
        f"draining the {m['run_id']} expansion peaked at "
        f"{m['traced_peak_mib']:.2f} MiB (allowed {MAX_EXPANSION_MIB} MiB)"
        for m in measurements
        if m["traced_peak_mib"] > MAX_EXPANSION_MIB
    ]
    peak = {m["run_id"]: m["traced_peak_mib"] for m in measurements}
    ratio = peak["code_deg100"] / peak["class_deg100"]
    if ratio > MAX_SCALE_RATIO:
        failures.append(
            f"the code_deg100 expansion peaked at {ratio:.2f}x the "
            f"class_deg100 one with 15x its fragments (allowed "
            f"{MAX_SCALE_RATIO}x)"
        )
    return ratio, failures


def check_expansion(out: str | None) -> int:
    measurements = [measure_expansion(*plan) for plan in EXPANSION_PLANS]
    ratio, failures = judge_expansion(measurements)
    report = {
        "max_allowed_mib": MAX_EXPANSION_MIB,
        "max_scale_ratio": MAX_SCALE_RATIO,
        "scale_ratio": round(ratio, 3),
        "plans": measurements,
    }
    print(json.dumps(report, indent=2))
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    peaks = ", ".join(
        f"{m['run_id']} {m['traced_peak_mib']:.2f} MiB" for m in measurements
    )
    print(f"ok: expansion peaks {peaks}; code/class ratio {ratio:.2f}x")
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
        "--expansion", action="store_true",
        help="check the work expander instead of retention: drain the "
             "cluster32, class_deg100 and code_deg100 expansions under "
             "tracemalloc",
    )
    args = parser.parse_args(argv)
    if args.expansion:
        return check_expansion(args.out)
    if args.large <= args.small:
        print("error: --large must exceed --small", file=sys.stderr)
        return 2
    measurements = [
        measure(args.small, "bounded"),
        measure(args.large, "bounded"),
    ]
    if not args.skip_full:
        measurements.append(measure(args.small, "full"))
        measurements.append(measure(args.large, "full"))

    by_key = {(m["retention"], m["sessions"]): m for m in measurements}
    bounded_growth = (
        by_key[("bounded", args.large)]["traced_peak_kib"]
        / by_key[("bounded", args.small)]["traced_peak_kib"]
    )
    report = {
        "scale_ratio": round(args.large / args.small, 2),
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
