"""Command-line interface: ``python -m repro <command>``.

Exposes the library's three main workflows without writing code:

* ``info``      — schema and index-configuration summary (Section 3),
* ``options``   — enumerate fragmentation options under thresholds
  (Table 2, Section 4.4),
* ``cost``      — analytic I/O cost of a query under fragmentations
  (Table 3, Section 4.5),
* ``advise``    — recommend a fragmentation for a query mix
  (Section 4.7),
* ``simulate``  — run a query type on the simulated Shared Disk PDBS
  (Sections 5-6),
* ``bench``     — execute a registered scenario matrix and persist a
  machine-readable ``BENCH_<scenario>.json`` report,
* ``lint``      — static determinism & contract checks over the package
  source (also ``python -m repro.analysis``).

Examples::

    python -m repro info
    python -m repro options --min-bitmap-pages 4
    python -m repro cost 1STORE -f customer::store -f time::month,product::group
    python -m repro advise 1MONTH1GROUP 1CODE --min-fragments 100
    python -m repro simulate 1STORE -f time::month,product::group -d 100 -p 20 -t 5
    python -m repro bench --list
    python -m repro bench --scenario fig3_speedup_1store --fast --out BENCH_fig3.json
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from repro.advisor.advisor import AdvisorConfig, recommend_fragmentation
from repro.analysis.engine import add_lint_arguments, run_lint
from repro.bitmap.catalog import IndexCatalog
from repro.costmodel.report import compare_fragmentations, format_table
from repro.mdhf.spec import Fragmentation
from repro.mdhf.thresholds import enumerate_fragmentations
from repro.schema.apb1 import apb1_schema
from repro.sim.config import SimulationParameters
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.queries import query_type


def _parse_fragmentation(text: str) -> Fragmentation:
    """``time::month,product::group`` -> Fragmentation."""
    return Fragmentation.parse(*[part.strip() for part in text.split(",")])


def _add_schema_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--channels", type=int, default=15,
        help="APB-1 channel count (scale knob; default 15, the paper's)",
    )
    parser.add_argument(
        "--density", type=float, default=0.25,
        help="fact-table density factor (default 0.25)",
    )


def _schema(args: argparse.Namespace):
    return apb1_schema(channels=args.channels, density=args.density)


def _input_error(exc: ValueError | KeyError) -> int:
    """Report a rejected command-line input; exit status 2."""
    print(f"error: {exc.args[0]}", file=sys.stderr)
    return 2


def _check_limit(limit: int) -> None:
    """Reject a negative ``--limit``, which would slice from the end."""
    if limit < 0:
        raise ValueError(f"--limit must be >= 0, got {limit}")


def _cmd_info(args: argparse.Namespace) -> int:
    try:
        schema = _schema(args)
    except ValueError as exc:
        return _input_error(exc)
    catalog = IndexCatalog(schema)
    print(schema)
    print(f"fact bytes: {schema.fact_bytes:,}")
    for dim in schema.dimensions:
        levels = " > ".join(
            f"{l.name}({l.cardinality})" for l in dim.hierarchy
        )
        descriptor = catalog.descriptor(dim.name)
        print(f"  {dim.name}: {levels}  [{descriptor.kind.value} index, "
              f"{descriptor.bitmap_count} bitmaps]")
    print(f"total bitmaps: {catalog.total_bitmaps}")
    return 0


def _cmd_options(args: argparse.Namespace) -> int:
    try:
        schema = _schema(args)
        _check_limit(args.limit)
        options = enumerate_fragmentations(
            schema,
            min_bitmap_pages=args.min_bitmap_pages,
            max_fragments=args.max_fragments,
        )
    except ValueError as exc:
        return _input_error(exc)
    options = sorted(options, key=lambda option: option.fragment_count)
    print(f"{len(options)} fragmentation options")
    for option in options[: args.limit]:
        print(
            f"  {str(option.fragmentation):<58} "
            f"n={option.fragment_count:>12,}  "
            f"bitmap frag={option.bitmap_fragment_pages:>8.2f} pages"
        )
    if len(options) > args.limit:
        print(f"  ... {len(options) - args.limit} more (use --limit)")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    if not args.fragmentation:
        print("error: pass at least one -f/--fragmentation", file=sys.stderr)
        return 2
    try:
        schema = _schema(args)
        # repro-lint: disable=DET-RNG -- one-shot CLI entry point: the
        # whole stream derives from --seed and never mixes with
        # simulation state.
        rng = random.Random(args.seed)
        query = query_type(args.query).instantiate(schema, rng)
        fragmentations = [
            _parse_fragmentation(text) for text in args.fragmentation
        ]
        for fragmentation in fragmentations:
            fragmentation.validate(schema)
    except (ValueError, KeyError) as exc:
        return _input_error(exc)
    reports = compare_fragmentations(query, fragmentations, schema)
    print(f"query: {query}")
    print(format_table(reports))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    try:
        schema = _schema(args)
        # repro-lint: disable=DET-RNG -- one-shot CLI entry point: the
        # whole stream derives from --seed and never mixes with
        # simulation state.
        rng = random.Random(args.seed)
        mix = [
            query_type(name).instantiate(schema, rng) for name in args.queries
        ]
        _check_limit(args.limit)
        config = AdvisorConfig(
            min_bitmap_fragment_pages=args.min_bitmap_pages,
            max_fragments=args.max_fragments,
            min_fragments=args.min_fragments,
            restrict_to_query_dimensions=not args.all_dimensions,
        )
    except ValueError as exc:
        return _input_error(exc)
    report = recommend_fragmentation(schema, mix, config)
    print(
        f"{report.options_total} options, "
        f"{report.options_after_thresholds} past thresholds"
    )
    for rank, candidate in enumerate(report.candidates[: args.limit], start=1):
        print(
            f"{rank:>3}. {str(candidate.fragmentation):<52} "
            f"n={candidate.fragment_count:>10,}  "
            f"bitmaps={candidate.kept_bitmaps:>3}  "
            f"io={candidate.weighted_io_pages:>14,.0f} pages"
        )
    if not report.candidates:
        print("no fragmentation survived the thresholds", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    try:
        schema = _schema(args)
        # repro-lint: disable=DET-RNG -- one-shot CLI entry point: the
        # whole stream derives from --seed and never mixes with
        # simulation state.
        rng = random.Random(args.seed)
        query = query_type(args.query).instantiate(schema, rng)
        params = replace(
            SimulationParameters().with_hardware(
                n_disks=args.disks,
                n_nodes=args.nodes,
                subqueries_per_node=args.tasks,
            ),
            io_coalesce=args.io_coalesce,
            record_retention=args.retention,
            seed=args.seed,
        )
        fragmentation = _parse_fragmentation(args.fragmentation[0])
        simulator = ParallelWarehouseSimulator(schema, fragmentation, params)
        if args.repeat < 1:
            raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    except (ValueError, KeyError) as exc:
        return _input_error(exc)
    result = simulator.run_repeated(query, args.repeat)
    print(f"query: {query}")
    print(f"fragmentation: {fragmentation}")
    print(f"hardware: d={args.disks} p={args.nodes} t={args.tasks}")
    print(f"avg response time: {result.avg_response_time:.3f} s")
    if result.queries:
        metrics = result.queries[0]
        print(f"subqueries: {metrics.subqueries:,}")
        print(f"fact pages: {metrics.fact_pages:,}  "
              f"bitmap pages: {metrics.bitmap_pages:,}")
    else:
        # Bounded retention keeps no per-query records — only the
        # streaming aggregates survive.
        print(f"retention: bounded "
              f"({result.query_count:,} queries folded, 0 records kept)")
    print(f"disk utilisation: {result.avg_disk_utilization:.0%}  "
          f"cpu utilisation: {result.avg_cpu_utilization:.0%}")
    return 0


def _bench_jobs(args: argparse.Namespace) -> int:
    """Effective pool size: --jobs, else all CPUs."""
    return args.jobs if args.jobs is not None else os.cpu_count() or 1


def _run_progress(done: int, total: int, result) -> None:
    """One line per completed run point (pool completion order)."""
    print(
        f"  [run {done}/{total}] {result.run_id} ok in "
        f"{result.wall_clock_s:.2f}s",
        flush=True,
    )


def _golden_is_stable(golden: dict) -> bool:
    """Whether a golden was written with ``--stable`` (all wall-clock
    fields zeroed).  Requiring the per-run fields too keeps a fast
    non-stable golden (whose total rounds to 0.0) from being converted."""
    return golden.get("wall_clock_s") == 0.0 and all(
        entry.get("wall_clock_s") == 0.0
        for entry in golden.get("runs", [])
    )


def _regen_golden(
    scenario, fast: bool, path: str, args: argparse.Namespace
) -> tuple[int, str | None, str | None]:
    """Regenerate one golden file in place.

    Reads the old golden (a corrupt one is an error, never silently
    overwritten), keeps its stability mode unless ``--stable`` is given,
    runs the scenario, writes the report and prints the old -> new
    fingerprint pair.  Returns ``(exit code, old fingerprint, new
    fingerprint)``; the old fingerprint is ``None`` for a new golden.
    """
    import json

    from repro.scenarios import RunExecutionError, ScenarioRunner, write_report

    golden_before = None
    if os.path.exists(path):
        try:
            with open(path) as handle:
                golden_before = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read existing golden {path}: {exc} "
                  f"(delete the file to regenerate from scratch)",
                  file=sys.stderr)
            return 2, None, None
    # An explicit --stable wins; otherwise preserve the golden's
    # stability mode.
    stable = args.stable or (
        golden_before is not None and _golden_is_stable(golden_before)
    )
    jobs = _bench_jobs(args)
    started = time.perf_counter()
    try:
        runner = ScenarioRunner(
            scenario, jobs=jobs, fast=fast,
            on_run=_run_progress if jobs > 1 else None,
        )
        report = runner.run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None, None
    except RunExecutionError as exc:
        _print_run_failure(exc, scenario.name)
        return 1, None, None
    write_report(report, path, stable=stable)
    new_fingerprint = report.metrics_fingerprint()
    if golden_before is None:
        old_fingerprint, status = None, "new golden"
    else:
        old_fingerprint = golden_before.get("metrics_fingerprint")
        status = (
            "unchanged" if old_fingerprint == new_fingerprint else "CHANGED"
        )
    print(f"regenerated {path} ({status}, "
          f"{time.perf_counter() - started:.1f}s)")
    print(f"fingerprint: {old_fingerprint or '(none)'}")
    print(f"          -> {new_fingerprint}", flush=True)
    return 0, old_fingerprint, new_fingerprint


def _print_run_failure(exc, scenario_name: str) -> None:
    print(f"error: {exc}", file=sys.stderr)
    print(f"error: run point {exc.run_id!r} of scenario "
          f"{scenario_name!r} failed; see the traceback above",
          file=sys.stderr)


def _cmd_bench_regen_all(args: argparse.Namespace) -> int:
    """Regenerate every scenario's committed golden(s) in one sweep.

    Iterates the registry, regenerates each golden variant that exists
    on disk (``_fast`` and/or full-matrix, preserving each file's
    stability mode), and ends with a per-scenario fingerprint diff
    summary — so a schema migration is one command.
    """
    from repro.scenarios import golden_filename, iter_scenarios

    for flag, value in (
        ("--scenario", args.scenario), ("--out", args.out),
        ("--runs", args.runs), ("--seed", args.seed),
        ("--seeds", args.seeds), ("--check", args.check),
    ):
        if value is not None:
            print(f"error: {flag} cannot be combined with --regen-all",
                  file=sys.stderr)
            return 2
    if args.regen:
        print("error: pass either --regen or --regen-all, not both",
              file=sys.stderr)
        return 2
    if args.fast:
        print("error: --regen-all regenerates whichever golden variants "
              "exist on disk; --fast is meaningless here",
              file=sys.stderr)
        return 2
    if not os.path.isdir(args.golden_dir):
        print(f"error: golden directory {args.golden_dir!r} does not "
              f"exist (run from the repo root or pass --golden-dir)",
              file=sys.stderr)
        return 2
    summary = []
    skipped = []
    for scenario in iter_scenarios():
        variants = []
        for fast in (True, False):
            path = os.path.join(
                args.golden_dir, golden_filename(scenario.name, fast)
            )
            if os.path.exists(path):
                variants.append((fast, path))
        if not variants:
            skipped.append(scenario.name)
            continue
        for fast, path in variants:
            code, old_fingerprint, new_fingerprint = _regen_golden(
                scenario, fast, path, args
            )
            if code:
                return code
            summary.append(
                (os.path.basename(path), old_fingerprint, new_fingerprint)
            )
    if skipped:
        print(f"skipped (no committed golden): {', '.join(skipped)}")
    print("\nfingerprint diff summary:")
    changed = 0
    for name, old_fp, new_fp in summary:
        if old_fp == new_fp:
            print(f"  {name:<44} unchanged")
        else:
            changed += 1
            print(f"  {name:<44} CHANGED")
            print(f"    {old_fp}")
            print(f"    -> {new_fp}")
    print(f"{changed}/{len(summary)} goldens changed fingerprint")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        RunExecutionError,
        ScenarioRunner,
        compare_to_golden,
        get_scenario,
        golden_filename,
        iter_scenarios,
        write_report,
    )

    if args.regen_all:
        return _cmd_bench_regen_all(args)
    if args.list:
        for scenario in iter_scenarios():
            figure = scenario.figure or "beyond-paper"
            print(
                f"{scenario.name:<32} {figure:<13} "
                f"{len(scenario.runs):>3} runs  {scenario.title}"
            )
        return 0
    if not args.scenario:
        print("error: pass --scenario NAME or --list", file=sys.stderr)
        return 2
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.regen:
        # Regenerate the committed golden in place; the flags that would
        # change the run matrix away from the golden's are rejected.
        for flag, value in (
            ("--out", args.out), ("--runs", args.runs),
            ("--seed", args.seed), ("--seeds", args.seeds),
            ("--check", args.check),
        ):
            if value is not None:
                print(f"error: {flag} cannot be combined with --regen",
                      file=sys.stderr)
                return 2
        if not os.path.isdir(args.golden_dir):
            print(f"error: golden directory {args.golden_dir!r} does not "
                  f"exist (run from the repo root or pass --golden-dir)",
                  file=sys.stderr)
            return 2
        out = os.path.join(
            args.golden_dir, golden_filename(scenario.name, args.fast)
        )
        sibling = os.path.join(
            args.golden_dir, golden_filename(scenario.name, not args.fast)
        )
        if not os.path.exists(out) and os.path.exists(sibling):
            # Don't silently fork a second golden variant (the nightly
            # sweep would then run both matrices forever).
            hint = "drop --fast" if args.fast else "add --fast"
            print(
                f"error: no {out} but {sibling} exists; {hint} to "
                f"regenerate the committed golden, or remove the "
                f"existing file first to switch variants",
                file=sys.stderr,
            )
            return 2
        return _regen_golden(scenario, args.fast, out, args)[0]
    out = args.out or f"BENCH_{scenario.name}.json"
    out_dir = os.path.dirname(out) or "."
    if not os.path.isdir(out_dir):
        print(f"error: output directory {out_dir!r} does not exist",
              file=sys.stderr)
        return 2
    run_ids = None
    if args.runs:
        run_ids = [part.strip() for part in args.runs.split(",") if part.strip()]
        known = {run.run_id for run in scenario.expand(fast=args.fast)}
        unknown = [run_id for run_id in run_ids if run_id not in known]
        if unknown:
            print(
                f"error: unknown run ids {unknown}; known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
    seeds = None
    if args.seeds is not None:
        try:
            seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
        except ValueError:
            print(f"error: --seeds wants comma-separated integers, got "
                  f"{args.seeds!r}", file=sys.stderr)
            return 2
    if args.check is not None and not os.path.isfile(args.check):
        # Validate before the (possibly multi-minute) sweep runs.
        print(f"error: golden report {args.check!r} does not exist",
              file=sys.stderr)
        return 2
    jobs = _bench_jobs(args)
    try:
        # The runner owns the semantic validation (jobs >= 1, distinct
        # non-empty seeds, seed-vs-seeds exclusivity), so library and
        # CLI callers share one set of rules.
        runner = ScenarioRunner(
            scenario, jobs=jobs, fast=args.fast, seed=args.seed,
            run_ids=run_ids, seeds=seeds,
            on_run=_run_progress if jobs > 1 else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = runner.run()
    except RunExecutionError as exc:
        _print_run_failure(exc, scenario.name)
        return 1
    write_report(report, out, stable=args.stable)
    print(f"scenario: {scenario.name} ({scenario.title})")
    for result in report.runs:
        response = result.metrics.get(
            "response_time_s", result.metrics.get("avg_response_time_s")
        )
        shown = f"{response:.3f} s" if response is not None else "-"
        queue_delay = result.metrics.get("avg_queue_delay_s")
        queued = (
            f"  queue {queue_delay:.3f} s" if queue_delay is not None else ""
        )
        print(
            f"  {result.run_id:<24} {shown:>12}{queued}  "
            f"[{result.wall_clock_s:.2f}s wall]"
        )
    print(f"fingerprint: {report.metrics_fingerprint()}")
    print(f"wrote {out} ({len(report.runs)} runs, "
          f"{report.wall_clock_s:.1f}s wall)")
    if args.check:
        import json

        with open(args.check) as handle:
            golden = json.load(handle)
        problems = compare_to_golden(report, golden)
        golden_wall = {
            entry["run_id"]: entry.get("wall_clock_s")
            for entry in golden.get("runs", [])
        }
        for result in report.runs:
            recorded = golden_wall.get(result.run_id)
            if recorded:
                print(
                    f"  wall delta {result.run_id:<24} "
                    f"{recorded:.2f}s -> {result.wall_clock_s:.2f}s "
                    f"({recorded / max(result.wall_clock_s, 1e-9):.2f}x)"
                )
        if problems:
            for problem in problems:
                print(f"check FAILED: {problem}", file=sys.stderr)
            return 1
        print(f"check OK: metrics match {args.check}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MDHF data allocation for parallel data warehouses "
                    "(Stöhr/Märtens/Rahm, VLDB 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="schema and index summary")
    _add_schema_arguments(info)
    info.set_defaults(handler=_cmd_info)

    options = sub.add_parser("options", help="enumerate fragmentations (Table 2)")
    _add_schema_arguments(options)
    options.add_argument("--min-bitmap-pages", type=float, default=0.0)
    options.add_argument("--max-fragments", type=int, default=None)
    options.add_argument("--limit", type=int, default=20)
    options.set_defaults(handler=_cmd_options)

    cost = sub.add_parser("cost", help="analytic I/O cost (Table 3)")
    _add_schema_arguments(cost)
    cost.add_argument("query", help="query type, e.g. 1STORE")
    cost.add_argument(
        "-f", "--fragmentation", action="append", default=[],
        help="comma-separated attributes, e.g. time::month,product::group",
    )
    cost.add_argument("--seed", type=int, default=0)
    cost.set_defaults(handler=_cmd_cost)

    advise = sub.add_parser("advise", help="recommend a fragmentation (Section 4.7)")
    _add_schema_arguments(advise)
    advise.add_argument("queries", nargs="+", help="query types of the mix")
    advise.add_argument("--min-bitmap-pages", type=float, default=4.0)
    advise.add_argument("--max-fragments", type=int, default=None)
    advise.add_argument("--min-fragments", type=int, default=1)
    advise.add_argument("--all-dimensions", action="store_true")
    advise.add_argument("--limit", type=int, default=10)
    advise.add_argument("--seed", type=int, default=0)
    advise.set_defaults(handler=_cmd_advise)

    simulate = sub.add_parser("simulate", help="simulate a query (Sections 5-6)")
    _add_schema_arguments(simulate)
    simulate.add_argument("query", help="query type, e.g. 1STORE")
    simulate.add_argument(
        "-f", "--fragmentation", action="append", required=True,
        help="comma-separated attributes",
    )
    simulate.add_argument("-d", "--disks", type=int, default=100)
    simulate.add_argument("-p", "--nodes", type=int, default=20)
    simulate.add_argument("-t", "--tasks", type=int, default=4)
    simulate.add_argument("--repeat", type=int, default=1)
    simulate.add_argument("--io-coalesce", type=int, default=8)
    simulate.add_argument(
        "--retention", choices=("full", "bounded"), default="full",
        help="record retention: 'bounded' folds every query into the "
             "streaming aggregates and keeps no per-query records "
             "(constant memory for any --repeat)",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=_cmd_simulate)

    bench = sub.add_parser(
        "bench", help="run a scenario matrix, write BENCH_<scenario>.json"
    )
    bench.add_argument("--scenario", help="registered scenario name")
    bench.add_argument(
        "--list", action="store_true", help="list registered scenarios"
    )
    bench.add_argument(
        "--fast", action="store_true",
        help="run the scenario's reduced sweep (same shape, fewer points)",
    )
    bench.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="execute the run points across this many worker processes, "
             "one task per point (default: all CPUs; 1 = the serial "
             "path; the metrics fingerprint is identical for any value, "
             "and reports are byte-identical under --stable)",
    )
    bench.add_argument(
        "--out", default=None,
        help="output path (default BENCH_<scenario>.json in the cwd)",
    )
    bench.add_argument(
        "--seed", type=int, default=None,
        help="override every run's seed (default: the registered seeds)",
    )
    bench.add_argument(
        "--seeds", default=None, metavar="S0,S1,...",
        help="replicate the matrix over these seeds (run_ids gain a "
             "_s<seed> suffix); each replica is its own run point",
    )
    bench.add_argument(
        "--runs", default=None,
        help="comma-separated run_ids: execute only this subset of the "
             "(possibly fast-reduced) matrix",
    )
    bench.add_argument(
        "--stable", action="store_true",
        help="zero host wall-clock fields in the written report so two "
             "same-seed runs are byte-identical",
    )
    bench.add_argument(
        "--check", default=None, metavar="GOLDEN_JSON",
        help="compare metrics against a golden BENCH report (exit 1 on "
             "mismatch) and print wall-clock deltas",
    )
    bench.add_argument(
        "--regen", action="store_true",
        help="regenerate the scenario's committed golden in place "
             "(benchmarks/results/BENCH_<scenario>[_fast].json, honouring "
             "--fast) and print the fingerprint diff",
    )
    bench.add_argument(
        "--regen-all", action="store_true",
        help="regenerate every scenario's committed golden(s) — whichever "
             "variants exist under --golden-dir — and print a "
             "per-scenario fingerprint diff summary",
    )
    bench.add_argument(
        "--golden-dir", default=os.path.join("benchmarks", "results"),
        help="where --regen reads/writes goldens "
             "(default benchmarks/results)",
    )
    bench.set_defaults(handler=_cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="static determinism & contract checks over the repro package",
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=run_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
