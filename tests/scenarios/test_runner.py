"""Runner determinism, execution modes, and the process-pool path."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.scenarios import (
    ScenarioRunner,
    execute_run,
    get_scenario,
    physical_metrics,
)
from repro.scenarios.spec import MODE_MULTI_USER, RunSpec


@pytest.fixture(scope="module")
def smoke_report():
    return ScenarioRunner("smoke_tiny").run()


class TestDeterminism:
    def test_same_seed_gives_byte_identical_metrics(self, smoke_report):
        again = ScenarioRunner("smoke_tiny").run()
        first = json.dumps(smoke_report.metrics_projection(), sort_keys=True)
        second = json.dumps(again.metrics_projection(), sort_keys=True)
        assert first == second
        assert (
            smoke_report.metrics_fingerprint() == again.metrics_fingerprint()
        )

    def test_pool_execution_matches_serial(self, smoke_report):
        pooled = ScenarioRunner("smoke_tiny", jobs=2).run()
        assert (
            pooled.metrics_fingerprint() == smoke_report.metrics_fingerprint()
        )

    def test_skew_mix_fingerprint_identical_at_jobs_1_and_2(self):
        # The skewed multi-user expansion rides the rewritten fast path;
        # its fingerprint must not depend on the pool width.
        serial = ScenarioRunner("multiuser_skew_mix", fast=True, jobs=1).run()
        pooled = ScenarioRunner("multiuser_skew_mix", fast=True, jobs=2).run()
        assert serial.metrics_fingerprint() == pooled.metrics_fingerprint()
        assert serial.to_json(stable=True) == pooled.to_json(stable=True)

    def test_unknown_run_ids_raise_at_construction(self):
        with pytest.raises(ValueError, match="unknown run ids"):
            ScenarioRunner("smoke_tiny", run_ids=["missing_run"])

    def test_empty_run_selection_raises_at_construction(self):
        with pytest.raises(ValueError, match="selected no run points"):
            ScenarioRunner("smoke_tiny", run_ids=[])

    def test_static_scenarios_skip_run_selection_validation(self):
        # Static scenarios have no run matrix; construction must work.
        report = ScenarioRunner("table4_defaults").run()
        assert report.runs[0].run_id == "static"

    def test_seed_override_changes_config_hashes(self, smoke_report):
        reseeded = ScenarioRunner("smoke_tiny", seed=99).run()
        for before, after in zip(smoke_report.runs, reseeded.runs):
            assert before.run_id == after.run_id
            assert before.config_hash != after.config_hash
            assert after.config["seed"] == 99

    def test_fast_subset_runs_are_a_prefix_of_full_metrics(self, smoke_report):
        fast = ScenarioRunner("smoke_tiny", fast=True).run()
        full = smoke_report.metrics_projection()
        for result in fast.runs:
            assert full[result.run_id]["metrics"] == physical_metrics(
                result.metrics
            )


class TestExecutionModes:
    def test_sim_run_metrics_shape(self, smoke_report):
        by_id = {r.run_id: r for r in smoke_report.runs}
        metrics = by_id["tiny_1store"].metrics
        assert metrics["response_time_s"] > 0
        assert metrics["subqueries"] >= 1
        assert metrics["fact_pages"] >= 0
        assert 0.0 <= metrics["avg_disk_utilization"] <= 1.0
        assert metrics["event_count"] > 0

    def test_analytic_run_matches_cost_model(self):
        scenario = get_scenario("table3_iocost")
        by_id = {run.run_id: run for run in scenario.runs}
        result = execute_run(by_id["f_opt"])
        # Table 3's F_opt row, reproduced exactly by the cost model.
        assert result.metrics["fragment_count"] == 1
        assert result.metrics["fact_io_ops"] == 795
        assert result.metrics["bitmap_pages"] == 0

    def test_multi_user_run_executes_all_streams(self):
        run = RunSpec(
            run_id="mu",
            query="1STORE",
            fragmentation=("time::month", "product::group"),
            mode=MODE_MULTI_USER,
            schema="tiny",
            n_disks=10,
            n_nodes=2,
            t=2,
            streams=2,
            queries_per_stream=2,
        )
        result = execute_run(run)
        assert result.metrics["query_count"] == 4
        assert result.metrics["throughput_qps"] > 0
        assert result.metrics["avg_response_time_s"] > 0
        assert (
            result.metrics["max_response_time_s"]
            >= result.metrics["avg_response_time_s"]
        )

    def test_wall_clock_is_positive_but_not_in_metrics(self, smoke_report):
        for result in smoke_report.runs:
            assert result.wall_clock_s > 0
            assert "wall_clock_s" not in result.metrics
            assert not any("wall" in key for key in result.metrics)


class TestStaticScenarios:
    def test_table4_static_metrics_are_the_paper_defaults(self):
        report = ScenarioRunner("table4_defaults").run()
        (result,) = report.runs
        assert result.metrics["hardware"]["n_disks"] == 100
        assert result.metrics["hardware"]["n_nodes"] == 20
        assert result.metrics["disk"]["avg_seek_ms"] == 10.0
        assert result.metrics["buffer"]["page_size"] == 4096

    def test_table1_static_metrics_match_table1(self):
        report = ScenarioRunner("table1_encoding").run()
        (result,) = report.runs
        assert result.metrics["total_bits"] == 15
        assert result.metrics["levels"]["code"]["bits"] == 4

    def test_table6_static_metrics_match_table6(self):
        report = ScenarioRunner("table6_fragmentations").run()
        (result,) = report.runs
        assert result.metrics["F_MonthGroup"]["fragment_count"] == 11_520
        assert result.metrics["F_MonthCode"]["fragment_count"] == 345_600


class TestDerivedMetrics:
    def test_speedups_are_relative_to_the_slowest_run(self, smoke_report):
        derived = smoke_report.derived
        speedups = derived["speedup_vs_slowest"]
        assert speedups[derived["slowest_run"]] == 1.0
        assert all(value >= 1.0 for value in speedups.values())
        # Analytic runs carry no response time and stay out of speedups.
        assert "analytic_1store" not in speedups

    def test_degraded_disks_slow_the_disk_bound_query(self):
        # Beyond-paper scenario, shrunk to the tiny schema for speed.
        scenario = get_scenario("degraded_disks")
        runs = [
            replace(run, schema="tiny", n_disks=10, n_nodes=2, t=2)
            for run in scenario.runs
        ]
        times = {
            run.disk_degradation: execute_run(run).metrics["response_time_s"]
            for run in runs
        }
        assert times[1.0] < times[1.5] < times[2.0]
        # Disk-bound: doubling every disk timing roughly doubles response.
        assert times[2.0] / times[1.0] > 1.5
