"""Child-process phases of the perf benchmark; ``run.py`` starts them.

    python worker.py setup   WORKLOAD
    python worker.py measure WORKLOAD SEED SECONDS
    python worker.py trace   WORKLOAD SEED SECONDS

Each launch is a fresh interpreter with ``src/`` on ``PYTHONPATH`` and
prints one JSON object as its last line of standard output.

* ``setup`` times ``import repro.scenarios`` and the workload's
  ``warm_caches``.
* ``measure`` runs one untimed warm-up rep, then timed reps until
  ``SECONDS`` have passed (at least :data:`MIN_REPS`), with a bracket
  of reference-loop samples before the first rep and after each.
* ``trace`` runs the warm-up, one untimed rep between two brackets,
  then traced reps with :mod:`trace` installed.

The warm-up rep runs the workload's warm-up point at its registered
seed and is checked against that point's committed golden, so every
launch checks a golden whatever ``SEED`` is.  Timed and traced reps run
the workload's point at ``SEED``: at the registered seed they are
checked against its golden too, at any other seed against the first
rep of the launch.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import reference
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN_DIR = os.path.join(ROOT, "benchmarks", "results")

# Registered run points with committed goldens: (scenario, run_id, golden).
_CLUSTER32 = (
    "ablation_fragment_clustering", "cluster32",
    "BENCH_ablation_fragment_clustering_fast.json",
)
_CLASS_DEG100 = ("fig6_1store", "class_deg100", "BENCH_fig6_1store_fast.json")
_STAGGERED_FALSE = (
    "ablation_staggered_allocation", "staggered_False",
    "BENCH_ablation_staggered_allocation_fast.json",
)
_SESSIONS10000 = (
    "warehouse_scale", "sessions10000", "BENCH_warehouse_scale.json",
)
_BOUNDED256 = ("warehouse_smoke", "bounded256", "BENCH_warehouse_smoke.json")

#: name -> (timed point, warm-up point).  A warm-up point shares its
#: timed point's database, so it fills the same caches; warehouse_open
#: warms up on its 256-session smoke twin rather than spend another 7 s
#: rep.  Why each workload was chosen is in README.md.
WORKLOADS = {
    "clustered_1store": (_CLUSTER32, _CLUSTER32),
    "monthclass_1store": (_CLASS_DEG100, _CLASS_DEG100),
    "colocated_1store": (_STAGGERED_FALSE, _STAGGERED_FALSE),
    "warehouse_open": (_SESSIONS10000, _BOUNDED256),
}

#: Timed reps per launch even when they outlast ``SECONDS``: the median
#: then still discards a rep that a slow burst of the host hit.  Only
#: warehouse_open, at about 7 s a rep, needs the floor.
MIN_REPS = 4

#: Reference-loop time in the bracket after a rep, as a share of that
#: rep's wall (each bracket holds at least two samples).
REF_SHARE = 0.1

#: Traced layers, in report order.
LAYERS = (
    "engine", "scheduler", "disk", "cpu", "network", "buffer", "database",
    "mdhf", "admission", "arrivals", "metrics", "runner",
)

#: Layers that only the open-system workload enters.  Their self time
#: is exactly 0.0 on the other workloads, so they report share and
#: calls but no self time in seconds.
OPEN_SYSTEM_LAYERS = ("admission", "arrivals")


def lookup(point: tuple[str, str, str]):
    """The registered ``RunSpec`` of a point."""
    from repro.scenarios.registry import get_scenario

    scenario, run_id, _golden = point
    (run,) = [r for r in get_scenario(scenario).runs if r.run_id == run_id]
    return run


def physics(config_hash: str, metrics: dict) -> dict:
    """What a rep must reproduce: config hash and physical metrics."""
    from repro.scenarios.runner import physical_metrics

    return {"config_hash": config_hash, "metrics": physical_metrics(metrics)}


def digest(physics_: dict) -> str:
    return hashlib.sha256(
        json.dumps(physics_, sort_keys=True).encode()
    ).hexdigest()


class Checker:
    """Counts attempted and failed reps of one launch.

    A rep fails if it raises, or if its physics differ from the golden
    (registered seed) or from the launch's first rep of that run point
    at that seed.
    """

    def __init__(self, workload: str):
        timed, warm = WORKLOADS[workload]
        self.timed_run = lookup(timed)
        self.warm_run = lookup(warm)
        #: (run_id, seed) -> expected physics.
        self.expected: dict[tuple[str, int], dict] = {}
        for point, run in ((timed, self.timed_run), (warm, self.warm_run)):
            with open(os.path.join(GOLDEN_DIR, point[2])) as handle:
                (entry,) = [
                    entry for entry in json.load(handle)["runs"]
                    if entry["run_id"] == run.run_id
                ]
            self.expected[(run.run_id, run.seed)] = physics(
                entry["config_hash"], entry["metrics"]
            )
        self.digests: dict[tuple[str, int], str] = {}
        self.attempted = 0
        self.failed = 0

    def rep(self, execute, run) -> float | None:
        """Execute one rep; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        try:
            started = time.perf_counter()
            result = execute(run)
            wall = time.perf_counter() - started
        except Exception:  # noqa: BLE001 - a failed rep is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        key = (run.run_id, run.seed)
        got = physics(result.config_hash, result.metrics)
        if got != self.expected.setdefault(key, got):
            print(f"physics of {run.run_id} at seed {run.seed} differ from "
                  f"the expected", file=sys.stderr)
            self.failed += 1
            return None
        self.digests[key] = digest(got)
        return wall

    def report(self, run) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": self.digests.get((run.run_id, run.seed)),
        }


def setup(workload: str) -> dict:
    started = time.perf_counter()
    import repro.scenarios

    imported = time.perf_counter()
    repro.scenarios.warm_caches([lookup(WORKLOADS[workload][0])])
    return {
        "import_s": imported - started,
        "caches_s": time.perf_counter() - imported,
    }


def reference_bracket(budget_s: float) -> list[float]:
    """Reference-loop times, at least two, until ``budget_s`` is spent."""
    samples = [reference.timed(), reference.timed()]
    while sum(samples) < budget_s:
        samples.append(reference.timed())
    return samples


def _start(workload: str, seed: int):
    """Checker, runner module and the timed run, after the warm-up."""
    from dataclasses import replace

    from repro.scenarios import runner

    checker = Checker(workload)
    checker.rep(runner.execute_run, checker.warm_run)
    return checker, runner, replace(checker.timed_run, seed=seed)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Timed reps; each is divided by the mean of the medians of the
    reference brackets right before and right after it."""
    checker, runner, run = _start(workload, seed)
    brackets = [reference_bracket(0.0)]
    reps = []
    started = time.perf_counter()
    attempts = 0
    while attempts < MIN_REPS or time.perf_counter() - started < seconds:
        attempts += 1
        wall = checker.rep(runner.execute_run, run)
        brackets.append(reference_bracket(REF_SHARE * (wall or 0.0)))
        if wall is not None:
            ref = (statistics.median(brackets[-2])
                   + statistics.median(brackets[-1])) / 2
            reps.append({"wall_s": wall, "ref_s": ref, "rel": wall / ref})
    return {
        **checker.report(run),
        "reps": reps,
        "brackets": brackets,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_run(workload: str, seed: int, seconds: float) -> dict:
    """One untraced rep for the host numbers, then traced reps."""
    checker, runner, run = _start(workload, seed)
    started = time.perf_counter()
    before = reference_bracket(0.0)
    wall = checker.rep(runner.execute_run, run)
    after = reference_bracket(REF_SHARE * (wall or 0.0))
    tracer = trace.install()
    try:
        traced = 0
        while not traced or time.perf_counter() - started < seconds:
            traced += 1
            # Looked up after install, so execute_run is the root frame.
            checker.rep(runner.execute_run, run)
    finally:
        trace.uninstall(tracer)
    out = {**checker.report(run), "metrics": {}, "edges": {}}
    if wall is None:
        return out
    ref = (statistics.median(before) + statistics.median(after)) / 2
    out["metrics"] = layer_metrics(tracer, traced, wall, ref)
    out["edges"] = {
        f"{caller}->{callee}": {"calls": calls // traced,
                                "s": elapsed / 1e9 / traced}
        for (caller, callee), (calls, elapsed) in sorted(tracer.edges.items())
    }
    return out


def layer_metrics(tracer, reps: int, host_run_s: float, ref_s: float) -> dict:
    """Per-rep layer metrics of ``reps`` traced reps (name -> value)."""
    root_ns = tracer.root_time()
    entries = tracer.entries
    observed = tracer.observed
    metrics = {}
    total_calls = 0
    for layer in LAYERS:
        own_ns = tracer.self_time.get(layer, 0)
        calls = tracer.calls(layer) // reps
        total_calls += calls
        if layer not in OPEN_SYSTEM_LAYERS:
            metrics[f"{layer}.self_s"] = own_ns / 1e9 / reps
        metrics[f"{layer}.share"] = own_ns / root_ns
        metrics[f"{layer}.calls"] = calls
    work_units = entries["SimulatedDatabase.iter_subquery_work"][1] // reps
    events = observed["events"] // reps
    requests = observed["disk_requests"] // reps
    accesses = observed["buffer_hits"] + observed["buffer_misses"]
    traced_s = root_ns / 1e9 / reps
    metrics.update({
        "engine.events": events,
        "engine.events_per_s": events / host_run_s,
        "disk.requests": requests,
        "disk.fused_batches": entries["Disk.read_batch"][0] // reps,
        "disk.vector_priced": entries["Disk._service_vector"][0] // reps,
        "disk.ns_per_request": (
            tracer.self_time["disk"] / reps / requests if requests else 0.0
        ),
        "database.work_units": work_units,
        "metrics.records": entries["SimulationResult.record"][0] // reps,
        "buffer.hit_rate": (
            observed["buffer_hits"] / accesses if accesses else 0.0
        ),
        "scheduler.closed_form_ratio": (
            entries["Environment.timeout_at"][0] / reps / work_units
            if work_units else 0.0
        ),
        "host.run_s": host_run_s,
        "host.ref_ms": ref_s * 1000,
        "trace.overhead": traced_s / host_run_s,
        "trace.per_call_ns": (traced_s - host_run_s) * 1e9 / total_calls,
    })
    return metrics


def main(argv: list[str]) -> int:
    phase, workload = argv[0], argv[1]
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if phase == "setup":
        out = setup(workload)
    elif phase in ("measure", "trace"):
        seed, seconds = int(argv[2]), float(argv[3])
        out = (measure if phase == "measure" else trace_run)(
            workload, seed, seconds
        )
    else:
        print(f"unknown phase {phase!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
