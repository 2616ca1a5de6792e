"""Run every registered scenario and check it against its committed golden.

The tier-2 nightly workflow drives this script (with ``--jobs 2`` so the
process-pool path of the runner is exercised), but it is just as useful locally
before regenerating goldens:

    PYTHONPATH=src python benchmarks/check_goldens.py --jobs 2
    PYTHONPATH=src python benchmarks/check_goldens.py --scenario fig3_speedup_1store

Golden resolution follows the ``repro bench --regen`` convention under
``benchmarks/results/``: a ``BENCH_<scenario>_fast.json`` golden means
the scenario is checked on its reduced (``--fast``) sweep; otherwise the
full-matrix ``BENCH_<scenario>.json`` golden is used (the smoke and
static/analytic scenarios).  Exit status is non-zero if any scenario
deviates from its golden or has no golden at all.

Reports are written to ``--out-dir`` (default ``bench-artifacts/``) so
CI can upload every ``BENCH_*.json`` as an artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.scenarios import (
    RunExecutionError,
    ScenarioRunner,
    compare_to_golden,
    golden_filename,
    scenario_names,
    validate_report,
    write_report,
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def resolve_goldens(name: str, results_dir: str) -> list[tuple[str, bool]]:
    """Every committed (golden_path, fast) variant for a scenario.

    Usually one file exists per scenario; when both the ``_fast`` and
    the full-matrix golden are committed, both are checked — a stray
    extra golden must not silently shadow the canonical one.
    """
    found = []
    for fast in (True, False):
        path = os.path.join(results_dir, golden_filename(name, fast))
        if os.path.exists(path):
            found.append((path, fast))
    return found


def _check_one(
    name: str, jobs: int, golden_path: str, fast: bool, out_dir: str
) -> tuple[str, float, list[str]]:
    """Run one scenario variant against one golden file."""
    started = time.perf_counter()
    # A single broken scenario (or a corrupt golden file) must not abort
    # the sweep: report it and keep checking the rest.
    try:
        with open(golden_path) as handle:
            golden = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return "BAD GOLDEN", 0.0, [f"cannot read {golden_path}: {exc}"]
    # Catch stale-schema goldens (e.g. v1 files after the v2 fingerprint
    # migration) before spending minutes running the scenario.
    try:
        validate_report(golden)
    except ValueError as exc:
        return "BAD GOLDEN", 0.0, [f"{golden_path}: {exc}"]
    try:
        report = ScenarioRunner(name, jobs=jobs, fast=fast).run()
    except RunExecutionError as exc:
        return "ERROR", time.perf_counter() - started, [str(exc)]
    except Exception as exc:  # noqa: BLE001 - reported per scenario
        return "ERROR", time.perf_counter() - started, [
            f"{type(exc).__name__}: {exc}"
        ]
    elapsed = time.perf_counter() - started
    out_path = os.path.join(out_dir, golden_filename(name, fast))
    write_report(report, out_path)
    problems = compare_to_golden(report, golden)
    # compare_to_golden tolerates subset reports (the `--runs` use
    # case); here the full matrix ran, so a golden run point the report
    # does not cover means the scenario lost a run point — flag it.
    produced = {result.run_id for result in report.runs}
    for entry in golden.get("runs", []):
        if entry["run_id"] not in produced:
            problems.append(
                f"golden run {entry['run_id']!r} missing from the "
                f"scenario's run matrix"
            )
    return ("ok" if not problems else "MISMATCH"), elapsed, problems


def check_scenario(
    name: str, jobs: int, results_dir: str, out_dir: str
) -> tuple[str, float, list[str]]:
    """Check a scenario against every committed golden variant."""
    resolved = resolve_goldens(name, results_dir)
    if not resolved:
        return "NO GOLDEN", 0.0, [
            f"no {golden_filename(name, True)} or "
            f"{golden_filename(name, False)} under {results_dir}"
        ]
    status, elapsed, problems = "ok", 0.0, []
    for golden_path, fast in resolved:
        one_status, one_elapsed, one_problems = _check_one(
            name, jobs, golden_path, fast, out_dir
        )
        elapsed += one_elapsed
        problems.extend(
            f"[{os.path.basename(golden_path)}] {p}" for p in one_problems
        )
        if one_status != "ok" and status == "ok":
            status = one_status
    return status, elapsed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", "-j", type=int, default=2,
        help="worker processes per scenario, one task per run point "
             "(default 2; 1 = the serial path)",
    )
    parser.add_argument(
        "--scenario", action="append", default=None,
        help="check only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--results-dir", default=RESULTS_DIR,
        help="where the committed goldens live",
    )
    parser.add_argument(
        "--out-dir", default="bench-artifacts",
        help="where the regenerated BENCH_*.json reports are written",
    )
    args = parser.parse_args(argv)

    names = args.scenario or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        print(f"error: unknown scenarios {unknown}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)

    failures = 0
    total_started = time.perf_counter()
    for name in names:
        status, elapsed, problems = check_scenario(
            name, args.jobs, args.results_dir, args.out_dir
        )
        print(f"{name:<32} {status:<10} {elapsed:>6.1f}s", flush=True)
        if problems:
            failures += 1
            for problem in problems:
                print(f"    {problem}", file=sys.stderr)
    total = time.perf_counter() - total_started
    print(
        f"\n{len(names) - failures}/{len(names)} scenarios match their "
        f"goldens ({total:.1f}s, --jobs {args.jobs})"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
