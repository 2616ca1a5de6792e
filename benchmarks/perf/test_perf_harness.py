"""Tests of the perf benchmark's own parts: reference loop, tracer, verdicts."""

from __future__ import annotations

import ast
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run as perf_run  # noqa: E402
import trace  # noqa: E402
import worker  # noqa: E402


def test_sibling_modules_are_the_benchmarks_own():
    # The stdlib has a `trace` module too; a stale import would shadow ours.
    assert os.path.dirname(trace.__file__) == HERE
    assert os.path.dirname(reference.__file__) == HERE


# -- reference loop ---------------------------------------------------------

def test_reference_imports_nothing_from_repro():
    with open(reference.__file__) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "repro"]


def test_reference_result_is_deterministic_and_pinned():
    # Pinned: a different checksum means the loop's work changed, which
    # resets the benchmark baseline.
    assert reference.run() == reference.run() == 159.208162839807


# -- tracer -------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ticks: int) -> None:
        self.now += ticks


_CLOCK = _Clock()


class _Tree:
    def root(self):
        _CLOCK.advance(1)
        self.left()
        for _item in self.items():
            _CLOCK.advance(2)
        _CLOCK.advance(3)

    def left(self):
        _CLOCK.advance(5)
        self.leaf()
        self.leaf()

    def leaf(self):
        _CLOCK.advance(7)

    def items(self):
        for item in range(3):
            _CLOCK.advance(11)
            yield item


def test_self_times_sum_exactly_to_root_wall_under_fake_clock():
    tracer = trace.install(
        [
            ("a", _Tree, "root", trace.CALL),
            ("b", _Tree, "left", trace.CALL),
            ("c", _Tree, "leaf", trace.CALL),
            ("d", _Tree, "items", trace.ITER),
        ],
        clock=_CLOCK,
    )
    try:
        _Tree().root()
    finally:
        trace.uninstall(tracer)
    assert tracer.self_time == {"a": 1 + 3 * 2 + 3, "b": 5, "c": 14, "d": 33}
    assert tracer.root_time() == 62 == sum(tracer.self_time.values())
    assert tracer.edges == {
        ("host", "a"): [1, 62],
        ("a", "b"): [1, 19],
        ("b", "c"): [2, 14],
        # Three yields plus the next() that raised StopIteration.
        ("a", "d"): [4, 33],
    }
    assert tracer.calls("c") == 2
    assert tracer.entries["_Tree.items"] == [4, 3]


def _simulator_attributes() -> dict:
    """(holder, attribute) -> object for every attribute install() replaces."""
    attributes = {}
    for _layer, module, owner, attribute, _kind in trace.SIMULATOR_ENTRIES:
        holder = trace._owner(module, owner)
        original = holder.__dict__[attribute]
        if owner is None:
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__dict__", {}).get(attribute) is original:
                    attributes[(loaded, attribute)] = original
        else:
            attributes[(holder, attribute)] = original
    simulator = trace._owner("repro.sim.simulator", "ParallelWarehouseSimulator")
    attributes[(simulator, "_collect_totals")] = simulator.__dict__["_collect_totals"]
    return attributes


def test_uninstall_puts_back_the_identical_attributes():
    before = _simulator_attributes()
    # plan_query is also bound by name in repro.sim.database.
    assert sum(1 for _holder, name in before if name == "plan_query") >= 2
    tracer = trace.install()
    try:
        for (holder, attribute), original in before.items():
            assert holder.__dict__[attribute] is not original, attribute
    finally:
        trace.uninstall(tracer)
    for (holder, attribute), original in before.items():
        assert holder.__dict__[attribute] is original, attribute


def test_traced_run_reproduces_its_golden():
    from repro.scenarios import get_scenario, physical_metrics, runner

    (run,) = [
        r for r in get_scenario("smoke_tiny").runs if r.run_id == "tiny_1store"
    ]
    tracer = trace.install()
    try:
        result = runner.execute_run(run)
    finally:
        trace.uninstall(tracer)
    golden_path = os.path.join(worker.GOLDEN_DIR, "BENCH_smoke_tiny.json")
    with open(golden_path) as handle:
        (golden,) = [
            entry for entry in json.load(handle)["runs"]
            if entry["run_id"] == "tiny_1store"
        ]
    assert result.config_hash == golden["config_hash"]
    assert physical_metrics(result.metrics) == physical_metrics(golden["metrics"])
    assert tracer.root_time() == sum(tracer.self_time.values())
    assert tracer.edges[("host", "runner")][0] == 1
    for layer in ("engine", "scheduler", "disk", "cpu", "database", "mdhf"):
        assert tracer.calls(layer) > 0, layer
    assert tracer.observed["events"] == result.metrics["event_count"]
    metrics = worker.layer_metrics(tracer, 1, result.wall_clock_s, 0.1)
    assert metrics["metrics.records"] == 1
    assert sum(metrics[f"{layer}.share"] for layer in worker.LAYERS) == (
        pytest.approx(1.0)
    )


# -- verdicts -----------------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (PARENT, [100.5, 99.5, 101.0, 100.0, 100.2], "lower", "same"),
        (PARENT, [v * 1.2 for v in PARENT], "lower", "worse"),
        (PARENT, [v * 0.7 for v in PARENT], "lower", "better"),
        # Within the bound but not beyond the parent's spread: no gain.
        (PARENT, [v - 1.0 for v in PARENT], "lower", "same"),
        # Spread wider than the bound.
        ([80.0, 90.0, 100.0, 110.0, 120.0], PARENT, "lower", "unresolved"),
        ([80.0, 90.0, 100.0, 110.0, 120.0], [50.0, 55.0, 60.0, 52.0, 58.0],
         "lower", "better"),
        (PARENT, [v * 0.8 for v in PARENT], "higher", "worse"),
        (PARENT, [v * 1.5 for v in PARENT], "higher", "better"),
    ],
)
def test_verdict(parent, change, better, expected):
    assert perf_run.verdict(parent, change, better, 0.1) == expected


def _set_file(path, digest: str, run_rel: float) -> str:
    workload = {
        "seed": 5, "digest": digest, "failed": 0, "attempted": 3,
        "metrics": {"run_rel": run_rel, "setup_s": 0.2, "peak_rss_mb": 50.0},
    }
    with open(path, "w") as handle:
        json.dump({"invocations": [{"workloads": {"warehouse_open": workload}}]},
                  handle)
    return str(path)


def test_compare_fails_on_a_digest_mismatch(tmp_path, capsys):
    with open(perf_run.SPEC) as handle:
        spec = json.load(handle)
    parent = _set_file(tmp_path / "a.json", "aaa", 10.0)
    assert perf_run.compare(parent, _set_file(tmp_path / "b.json", "aaa", 10.0),
                            spec) == 0
    assert perf_run.compare(parent, _set_file(tmp_path / "c.json", "bbb", 10.0),
                            spec) == 1
    assert "digest differs at seed 5" in capsys.readouterr().out
