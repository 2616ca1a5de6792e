"""The bounded-memory check script: argument guards and report shape.

``benchmarks/check_bounded_memory.py`` measures one serial open-system
run per (retention, session count).  These tests drive it at tiny
session counts, where tracing costs milliseconds, to pin what the
script reports and which inputs it refuses.
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
