"""The bounded-memory check script: argument guards and report shape.

``benchmarks/check_bounded_memory.py`` measures one serial open-system
run per (retention, session count).  These tests drive it at tiny
session counts, where tracing costs milliseconds, to pin what the
script reports and which inputs it refuses.  The ``--expansion``
bounds are checked on given peaks, without draining the plans.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "check_bounded_memory.py"
)


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "check_bounded_memory_under_test", SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("retention, retained", [
    ("bounded", 0), ("full", 6),
])
def test_measure_runs_every_session(script, retention, retained):
    measurement = script.measure(6, retention)
    # warehouse_scale issues one query per session.
    assert measurement["sessions"] == 6
    assert measurement["query_count"] == 6
    assert measurement["retention"] == retention
    assert measurement["records_retained"] == retained
    assert measurement["traced_peak_kib"] > 0


@pytest.mark.parametrize("small, large", [(20, 20), (20, 10)])
def test_large_must_exceed_small(script, capsys, small, large):
    code = script.main(["--small", str(small), "--large", str(large)])
    assert code == 2
    assert "--large must exceed --small" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--stream-shards", "--jobs"])
def test_sharding_options_are_gone(script, capsys, option):
    # The check measures one serial run; there is nothing to shard.
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--small", "5", "--large", "10", option, "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_report_holds_memory_figures_only(script, tmp_path, capsys):
    out = tmp_path / "bounded.json"
    code = script.main([
        "--small", "5", "--large", "10", "--max-growth", "1000",
        "--out", str(out),
    ])
    assert code == 0
    assert "ok: bounded-retention peak grew" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["scale_ratio"] == 2.0
    assert report["max_allowed_growth"] == 1000
    assert {(m["retention"], m["sessions"]) for m in report["measurements"]} \
        == {("bounded", 5), ("bounded", 10), ("full", 5), ("full", 10)}
    # A memory report carries no host times and no per-shard figures.
    for measurement in report["measurements"]:
        assert set(measurement) == {
            "sessions", "retention", "query_count", "records_retained",
            "traced_peak_kib",
        }
    assert set(report) == {
        "scale_ratio", "bounded_peak_growth", "max_allowed_growth",
        "measurements", "full_peak_growth",
    }


def _expansion(run_id, peak):
    return {"run_id": run_id, "traced_peak_mib": peak}


@pytest.mark.parametrize("peaks, failing", [
    ((0.6, 1.3, 1.4), []),
    ((3.2, 1.3, 1.4), ["cluster32 expansion peaked at 3.20 MiB"]),
    ((0.6, 1.3, 1.7), ["1.31x the class_deg100 one"]),
    ((0.6, 4.2, 6.7), [
        "class_deg100 expansion peaked at 4.20 MiB",
        "code_deg100 expansion peaked at 6.70 MiB",
        "1.60x the class_deg100 one",
    ]),
])
def test_expansion_bounds(script, peaks, failing):
    """Every plan is held to the absolute bound, and the plan with 15x
    the fragments to the ratio bound over the smaller one."""
    run_ids = [run_id for _scenario, run_id in script.EXPANSION_PLANS]
    assert run_ids == ["cluster32", "class_deg100", "code_deg100"]
    ratio, failures = script.judge_expansion(
        [_expansion(*pair) for pair in zip(run_ids, peaks)]
    )
    assert ratio == pytest.approx(peaks[2] / peaks[1])
    assert len(failures) == len(failing)
    for failure, fragment in zip(failures, failing):
        assert fragment in failure
