"""Open-system scenarios: registry wiring, metrics shape, hash stability.

Also pins the committed multi-user golden (regenerated after the
per-(stream, query) RNG fix) so closed-stream results cannot drift
silently again.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenarios import execute_run, get_scenario, iter_scenarios
from repro.scenarios.spec import (
    MODE_OPEN_SYSTEM,
    MODE_SIM,
    RunSpec,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

OPEN_SCENARIOS = (
    "open_load_sweep",
    "open_mpl_ablation",
    "open_burstiness",
    "open_think_time",
    "smoke_open_tiny",
)


def _simulated_goldens() -> list[str]:
    """Committed goldens whose scenario has run points (not static)."""
    names = []
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        scenario = json.loads(path.read_text())["scenario"]
        if get_scenario(scenario).runs:
            names.append(path.name)
    return names


def tiny_open_run(**overrides) -> RunSpec:
    base = dict(
        run_id="t",
        query="1MONTH",
        fragmentation=("time::month", "product::group"),
        mode=MODE_OPEN_SYSTEM,
        schema="tiny",
        n_disks=8,
        n_nodes=2,
        t=2,
        streams=4,
        queries_per_stream=2,
        arrival_rate_qps=10.0,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRegistryWiring:
    @pytest.mark.parametrize("name", OPEN_SCENARIOS)
    def test_registered_and_open_mode(self, name):
        scenario = get_scenario(name)
        assert scenario.runs
        assert all(run.mode == MODE_OPEN_SYSTEM for run in scenario.runs)
        assert scenario.fast_run_ids  # every open scenario has a fast sweep

    def test_load_sweep_covers_the_knee(self):
        rates = [
            run.arrival_rate_qps
            for run in get_scenario("open_load_sweep").runs
        ]
        assert min(rates) < 1.0 < max(rates)  # spans under- and overload

    def test_mpl_ablation_includes_uncapped_point(self):
        caps = {run.max_mpl for run in get_scenario("open_mpl_ablation").runs}
        assert None in caps and 1 in caps

    def test_burstiness_matches_offered_load(self):
        runs = get_scenario("open_burstiness").runs
        assert {run.arrival_process for run in runs} == {
            "fixed", "poisson", "bursty"
        }
        assert len({run.arrival_rate_qps for run in runs}) == 1


class TestOpenSystemExecutor:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_run(tiny_open_run())

    def test_metrics_shape(self, result):
        metrics = result.metrics
        assert metrics["query_count"] == 8
        assert metrics["sessions"] == 4
        assert metrics["session_arrival_rate_qps"] == 10.0
        # Offered *query* load: 10 sessions/s x 2 queries per session.
        assert metrics["offered_load_qps"] == 20.0
        assert metrics["throughput_qps"] > 0
        assert (
            metrics["p50_response_time_s"]
            <= metrics["p95_response_time_s"]
            <= metrics["max_response_time_s"]
        )
        assert metrics["avg_queue_delay_s"] >= 0
        assert metrics["avg_total_delay_s"] >= metrics["avg_response_time_s"]
        assert metrics["peak_mpl"] >= 1
        assert len(metrics["per_stream_avg_response_s"]) == 4

    def test_deterministic_across_executions(self, result):
        again = execute_run(tiny_open_run())
        assert again.metrics == result.metrics
        assert again.config_hash == result.config_hash

    def test_mpl_cap_reflected_in_metrics(self):
        capped = execute_run(
            tiny_open_run(max_mpl=1, arrival_process="bursty",
                          arrival_rate_qps=50.0)
        )
        assert capped.metrics["peak_mpl"] == 1
        assert capped.metrics["queued_arrivals"] > 0
        assert capped.metrics["avg_queue_delay_s"] > 0


class TestConfigHashStability:
    def test_open_knobs_absent_from_closed_mode_configs(self):
        run = RunSpec(
            run_id="a", query="1STORE",
            fragmentation=("time::month", "product::group"),
            mode=MODE_SIM,
        )
        config = run.config_dict()
        for key in ("arrival_process", "arrival_rate_qps", "burst_size",
                    "max_mpl", "think_time_s"):
            assert key not in config
        assert "arrival_process" in tiny_open_run().config_dict()

    def test_open_knobs_rejected_outside_open_mode(self):
        with pytest.raises(ValueError, match="requires mode"):
            RunSpec(run_id="a", query="1STORE",
                    fragmentation=("time::month",), arrival_rate_qps=2.0)
        with pytest.raises(ValueError, match="requires mode"):
            RunSpec(run_id="a", query="1STORE",
                    fragmentation=("time::month",), max_mpl=4)

    def test_committed_golden_config_hashes_still_match(self):
        # The open-system fields must not shift any pre-existing hash:
        # rebuild fig3's reduced sweep and compare against the golden.
        golden = json.loads(
            (RESULTS_DIR / "BENCH_fig3_speedup_1store_fast.json").read_text()
        )
        scenario = get_scenario("fig3_speedup_1store")
        by_id = {run.run_id: run for run in scenario.expand(fast=True)}
        for entry in golden["runs"]:
            assert by_id[entry["run_id"]].config_hash() == entry["config_hash"]

    @pytest.mark.parametrize("golden", _simulated_goldens())
    def test_every_golden_config_matches_its_run_point(self, golden):
        # Every committed golden's configs and hashes must be rebuilt
        # exactly from the registry: no knob may enter or leave a
        # config_dict without a deliberate regeneration.
        report = json.loads((RESULTS_DIR / golden).read_text())
        scenario = get_scenario(report["scenario"])
        by_id = {run.run_id: run for run in scenario.runs}
        for entry in report["runs"]:
            run = by_id[entry["run_id"]]
            assert run.config_dict() == entry["config"]
            assert run.config_hash() == entry["config_hash"]

    def test_no_run_point_carries_stream_sharding_keys(self):
        # Runs are serial: no config may declare a shard count or a
        # partitioned timeline.
        configs = [
            run.config_dict()
            for scenario in iter_scenarios()
            for run in scenario.runs
        ]
        assert configs
        for config in configs:
            assert "stream_shards" not in config
            assert "partition_mode" not in config

    def test_invalid_open_specs_rejected(self):
        with pytest.raises(ValueError):
            tiny_open_run(arrival_rate_qps=0.0)
        with pytest.raises(ValueError):
            tiny_open_run(arrival_process="lumpy")
        with pytest.raises(ValueError):
            tiny_open_run(max_mpl=0)
        with pytest.raises(ValueError):
            tiny_open_run(think_time_s=-1.0)


class TestMultiUserGoldenRegression:
    """The committed multi-user golden reflects the RNG fix and the
    _round6 normalisation; re-executing its reduced sweep must
    reproduce it exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        path = RESULTS_DIR / "BENCH_ablation_multi_user_fast.json"
        return json.loads(path.read_text())

    def test_fast_runs_reproduce_the_golden(self, golden):
        scenario = get_scenario("ablation_multi_user")
        by_id = {run.run_id: run for run in scenario.expand(fast=True)}
        for entry in golden["runs"]:
            result = execute_run(by_id[entry["run_id"]])
            assert result.config_hash == entry["config_hash"]
            assert result.metrics == entry["metrics"]

    def test_multi_user_metrics_are_rounded(self, golden):
        for entry in golden["runs"]:
            for key in ("avg_response_time_s", "max_response_time_s",
                        "elapsed_s", "throughput_qps"):
                value = entry["metrics"][key]
                assert value == round(value, 6), key
