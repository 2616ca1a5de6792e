"""Perf benchmark of the warehouse simulator on four named workloads.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed S]
        [--seconds T] [--trace 0|1] [--out FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json

For each workload (all four unless ``--workload`` names one), one child
interpreter at a time:

1. set-up: 11 fresh launches, each timing ``import repro.scenarios``
   and ``warm_caches`` for the workload's run point;
2. measurement (skipped by ``--trace 1``): a golden-checked warm-up
   rep, then reps for ``--seconds`` seconds, each divided by the
   reference-loop time measured right before and right after it;
3. traced run (skipped by ``--trace 0``): the layer wrappers of
   ``trace.py`` installed on the simulator, per-layer self times.

It prints every metric with its unit, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names get
a ``<workload>.`` prefix when more than one workload runs.  ``--out``
appends the invocation to a set file, and ``--compare`` judges two sets
per workload and end-to-end metric (``FILE#key`` selects a set stored
under ``key``, as in ``baseline.json``).  The exit code is non-zero when
a rep fails, a child fails, or ``--compare`` finds a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = worker.ROOT
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh-interpreter set-up launches per workload; setup_s is their median.
SETUP_LAUNCHES = 11

#: Wall-clock budget of one workload's children, in seconds.
WORKLOAD_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """A child failed or timed out; no result can be reported."""


def _child(args: list[str], deadline: float) -> dict:
    """Run one worker phase to completion and return its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
            if p
        ),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {' '.join(args)} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"worker {' '.join(args)} exited with {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: int | None) -> dict:
    """All phases of one workload; metric values plus diagnostics."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = [_child(["setup", name], deadline) for _ in range(SETUP_LAUNCHES)]
    out = {"seed": seed, "attempted": 0, "failed": 0, "metrics": {}}
    metrics = out["metrics"]
    phases = []
    if trace != 1:
        measured = _child(["measure", name, str(seed), str(seconds)], deadline)
        phases.append(measured)
        if measured["reps"]:
            q1, median, q3 = quartiles([rep["rel"] for rep in measured["reps"]])
            metrics["run_rel"] = median
            out.update(run_rel_q1=q1, run_rel_q3=q3, n=len(measured["reps"]),
                       reps=measured["reps"], brackets=measured["brackets"])
        metrics["setup_s"] = statistics.median(
            s["import_s"] + s["caches_s"] for s in setups
        )
        metrics["peak_rss_mb"] = measured["peak_rss_mb"]
    if trace != 0:
        traced = _child(["trace", name, str(seed), str(seconds)], deadline)
        phases.append(traced)
        metrics.update(traced["metrics"])
        metrics["setup.import_s"] = statistics.median(
            s["import_s"] for s in setups
        )
        metrics["setup.caches_s"] = statistics.median(
            s["caches_s"] for s in setups
        )
        out["edges"] = traced["edges"]
    for phase in phases:
        out["attempted"] += phase["attempted"]
        out["failed"] += phase["failed"]
    digests = {phase["digest"] for phase in phases}
    if len(digests) > 1:
        print(f"{name}: traced physics differ from measured", file=sys.stderr)
        out["failed"] += 1
    out["digest"] = phases[0]["digest"]
    return out


def expected_metrics(spec: dict, trace: int | None) -> dict[str, str]:
    """name -> unit of the metrics an invocation must report."""
    groups = {0: ["end_to_end"], 1: ["per_layer"], None: ["end_to_end", "per_layer"]}
    return {
        metric["name"]: metric["unit"]
        for group in groups[trace] for metric in spec[group]
    }


def _commit() -> str | None:
    """HEAD of the checkout, suffixed ``+dirty`` when the tree differs."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip()

    head = git("rev-parse", "HEAD")
    return f"{head}+dirty" if head and git("status", "--porcelain") else head or None


def append_to_set(path: str, invocation: dict) -> None:
    data = {"invocations": []}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data["invocations"].append(invocation)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """better / worse / same / unresolved for one metric of one workload.

    Worse: the change's median is worse than the parent's by more than
    ``bound`` (a share of the parent's median).  Unresolved: the
    parent's quartile spread is wider than the bound and not every run
    of the change reads better than every run of the parent.  Better:
    the change wins at least nine tenths of the pairs (ties count for
    neither) and the medians differ by more than the parent's spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = quartiles(parent)
    spread = (q3 - q1) / median
    worse_by = sign * (statistics.median(change) - median) / median
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if wins >= 0.9 * len(pairs) and -worse_by > spread:
        return "better"
    return "same"


def _load_set(ref: str) -> list[dict]:
    path, _, key = ref.partition("#")
    with open(path) as handle:
        data = json.load(handle)
    return (data[key] if key else data)["invocations"]


def compare(parent_ref: str, change_ref: str, spec: dict) -> int:
    """Print the verdict table of two sets; 1 on a regression or failure."""
    parent, change = _load_set(parent_ref), _load_set(change_ref)
    bad = 0
    print(f"{'workload':18} {'metric':12} {'parent [q1, q3]':>30} "
          f"{'change [q1, q3]':>30} verdict")
    for name in worker.WORKLOADS:
        runs_p = [inv["workloads"][name] for inv in parent if name in inv["workloads"]]
        runs_c = [inv["workloads"][name] for inv in change if name in inv["workloads"]]
        if not runs_p or not runs_c:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values_p = [run["metrics"][key] for run in runs_p]
            values_c = [run["metrics"][key] for run in runs_c]
            outcome = verdict(values_p, values_c, metric["better"], metric["bound"])
            bad += outcome == "worse"
            cells = []
            for values in (values_p, values_c):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{name:18} {key:12} {cells[0]:>30} {cells[1]:>30} {outcome}")
        digests_p = {run["seed"]: run["digest"] for run in runs_p}
        for run in runs_c:
            if run["seed"] in digests_p and run["digest"] != digests_p[run["seed"]]:
                print(f"{name:18} FAIL physics digest differs at seed {run['seed']}")
                bad += 1
        failed = sum(run["failed"] for run in runs_p + runs_c)
        if failed:
            print(f"{name:18} FAIL {failed} failed reps")
            bad += 1
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0,
        help="input seed; 0, the default, is every point's registered seed",
    )
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload; default: "
                             "run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--out", help="append this invocation to a set file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    with open(SPEC) as handle:
        spec = json.load(handle)
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    required = {os.path.join(ROOT, "src", "repro", "__init__.py")} | {
        os.path.join(worker.GOLDEN_DIR, point[2])
        for points in worker.WORKLOADS.values() for point in points
    }
    missing = sorted(path for path in required if not os.path.exists(path))
    if missing:
        print(f"not a repro checkout, missing: {missing}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(worker.WORKLOADS)
    units = expected_metrics(spec, args.trace)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = {}
    for name, result in results.items():
        if set(result["metrics"]) != set(units) and not result["failed"]:
            raise AssertionError(
                f"{name} reported {sorted(set(result['metrics']) ^ set(units))} "
                f"against BENCHMARK.json"
            )
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
            print(f"{name:18} {key:30} {value:>16.6g} {units[key]}")
        if "n" in result:
            print(f"{name:18} {'run_rel q1/q3, N':30} {result['run_rel_q1']:>16.6g}"
                  f" {result['run_rel_q3']:.6g} {result['n']}")
    if args.out:
        append_to_set(args.out, {
            "host": platform.node(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": results,
        })
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
