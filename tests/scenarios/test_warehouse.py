"""The warehouse-scale scenario family: retention ablation and sizing.

``warehouse_smoke`` is the tier-1 witness for the streaming metrics
core: it runs the same 256-session open-system point under full and
bounded retention and the two must agree on every aggregate while the
bounded one keeps zero per-query records.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import MODE_OPEN_SYSTEM


@pytest.fixture(scope="module")
def smoke_report():
    return ScenarioRunner("warehouse_smoke").run()


def _metrics(report, run_id):
    for result in report.runs:
        if result.run_id == run_id:
            return result.metrics
    raise AssertionError(f"run {run_id!r} missing from report")


class TestWarehouseSmoke:
    def test_retention_modes_agree_on_every_aggregate(self, smoke_report):
        full = _metrics(smoke_report, "full256")
        bounded = _metrics(smoke_report, "bounded256")
        # Retention is a memory knob, never a physics knob: every key
        # the two payloads share must be byte-identical.
        shared = set(full) & set(bounded)
        assert {"avg_response_time_s", "p95_total_delay_s", "elapsed_s",
                "event_count", "throughput_qps"} <= shared
        for key in shared:
            assert full[key] == bounded[key], key

    def test_bounded_point_retains_no_records(self, smoke_report):
        bounded = _metrics(smoke_report, "bounded256")
        assert bounded["records_retained"] == 0
        assert bounded["query_count"] == 256
        assert bounded["percentile_source"] == "exact"
        assert "per_stream_avg_response_s" not in bounded

    def test_full_point_keeps_per_stream_rollups(self, smoke_report):
        full = _metrics(smoke_report, "full256")
        assert len(full["per_stream_avg_response_s"]) == 256

    def test_run_entries_report_peak_rss(self, smoke_report):
        for result in smoke_report.runs:
            assert result.peak_rss_kb > 0


class TestWarehouseScaleSpec:
    def test_family_shape(self):
        scenario = get_scenario("warehouse_scale")
        by_id = {run.run_id: run for run in scenario.runs}
        assert set(by_id) == {
            "sessions10000_full", "sessions10000", "sessions100000"
        }
        assert by_id["sessions100000"].streams == 100_000
        assert by_id["sessions10000_full"].record_retention == "full"
        assert by_id["sessions10000"].record_retention == "bounded"
        assert by_id["sessions100000"].record_retention == "bounded"
        for run in scenario.runs:
            assert run.mode == MODE_OPEN_SYSTEM
            assert run.n_disks == 128
            assert run.max_mpl is not None
        # The 10^5 point is tier-2 only; the fast subset is the 10^4
        # retention ablation pair.
        assert set(scenario.fast_run_ids) == {
            "sessions10000_full", "sessions10000"
        }
