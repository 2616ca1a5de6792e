"""Registry round-trip: every scenario expands into valid run points."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.mdhf.spec import Fragmentation
from repro.scenarios import get_scenario, iter_scenarios, scenario_names
from repro.scenarios.registry import TABLE5_CONFIGS
from repro.scenarios.runner import STATIC_EVALUATORS
from repro.scenarios.spec import (
    KIND_ANALYTIC,
    KIND_SIMULATION,
    KIND_STATIC,
    MODE_MULTI_USER,
    RunSpec,
    ScenarioSpec,
    grid,
)
from repro.sim.config import SimulationParameters
from repro.workload.queries import query_type


class TestRegistryContents:
    def test_names_are_sorted_and_unique(self):
        names = scenario_names()
        assert names == sorted(set(names))
        assert len(names) >= 15

    def test_every_paper_figure_and_table_is_covered(self):
        figures = {s.figure for s in iter_scenarios() if s.figure}
        for wanted in ("fig3", "fig4", "fig5", "fig6",
                       "table1", "table2", "table3", "table4", "table6"):
            assert wanted in figures, wanted

    def test_beyond_paper_scenarios_exist(self):
        skewed = get_scenario("multiuser_skew_mix")
        assert any(
            run.data_skew > 0 and run.streams > 1 and run.mode == MODE_MULTI_USER
            for run in skewed.runs
        )
        degraded = get_scenario("degraded_disks")
        assert any(run.disk_degradation > 1.0 for run in degraded.runs)

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no_such_scenario")

    def test_speedup_fast_sweeps_keep_their_baseline_point(self):
        # The fig3/fig4 benchmarks normalise speed-ups against the
        # d=20/p=1 run, so the reduced sweeps must always include it.
        for name in ("fig3_speedup_1store", "fig4_speedup_1month"):
            assert "d20_p1" in get_scenario(name).fast_run_ids, name

    def test_fig3_matches_table5_hardware_matrix(self):
        scenario = get_scenario("fig3_speedup_1store")
        points = {
            (run.n_disks, run.n_nodes): run.t for run in scenario.runs
        }
        expected = {
            (d, p): max(1, d // p)
            for d, nodes in TABLE5_CONFIGS.items()
            for p in nodes
        }
        assert points == expected


class TestRoundTrip:
    """Every registered run point builds a valid simulator config."""

    @pytest.fixture(params=scenario_names())
    def scenario(self, request):
        return get_scenario(request.param)

    def test_runs_or_static_evaluator(self, scenario):
        if scenario.kind == KIND_STATIC:
            assert scenario.name in STATIC_EVALUATORS
            assert scenario.runs == ()
        else:
            assert scenario.runs

    def test_run_ids_unique_and_fast_subset(self, scenario):
        if scenario.kind == KIND_STATIC:
            pytest.skip("static scenarios have no runs")
        ids = [run.run_id for run in scenario.runs]
        assert len(ids) == len(set(ids))
        assert set(scenario.fast_run_ids) <= set(ids)
        fast = scenario.expand(fast=True)
        assert set(r.run_id for r in fast) <= set(ids)
        assert fast  # reduced sweep is never empty for run scenarios

    def test_every_run_builds_a_valid_sim_config(self, scenario):
        for run in scenario.expand():
            params = run.sim_params()
            assert isinstance(params, SimulationParameters)
            assert params.hardware.n_disks == run.n_disks
            assert params.hardware.n_nodes == run.n_nodes
            assert params.hardware.subqueries_per_node == run.t
            assert params.data_skew == run.data_skew
            assert params.seed == run.seed
            # The query type and fragmentation both resolve.
            query_type(run.query)
            assert isinstance(run.parsed_fragmentation(), Fragmentation)


class TestRunSpec:
    def test_disk_degradation_scales_every_disk_timing(self):
        base = RunSpec(run_id="a", query="1STORE",
                       fragmentation=("time::month",))
        degraded = replace(base, disk_degradation=2.0)
        d0, d1 = base.sim_params().disk, degraded.sim_params().disk
        assert d1.avg_seek_ms == 2 * d0.avg_seek_ms
        assert d1.settle_controller_ms == 2 * d0.settle_controller_ms
        assert d1.per_page_ms == 2 * d0.per_page_ms

    def test_config_hash_is_stable_and_sensitive(self):
        run = RunSpec(run_id="a", query="1STORE",
                      fragmentation=("time::month", "product::group"))
        same = RunSpec(run_id="a", query="1STORE",
                       fragmentation=("time::month", "product::group"))
        assert run.config_hash() == same.config_hash()
        assert run.config_hash() != replace(run, seed=1).config_hash()
        assert run.config_hash() != replace(run, n_disks=50).config_hash()

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(run_id="a", query="1STORE", fragmentation=())
        with pytest.raises(ValueError):
            RunSpec(run_id="a", query="1STORE",
                    fragmentation=("time::month",), mode="bogus")
        with pytest.raises(ValueError):
            RunSpec(run_id="a", query="1STORE",
                    fragmentation=("time::month",), disk_degradation=0.5)
        with pytest.raises(ValueError):
            RunSpec(run_id="a", query="1STORE",
                    fragmentation=("time::month",), schema="huge")
        bad_values = [
            ({"disk_degradation": float("nan")}, "disk_degradation"),
            ({"disk_degradation": float("inf")}, "disk_degradation"),
            ({"mode": "multi_user", "streams": 2, "queries_per_stream": 0},
             "queries_per_stream"),
            ({"mode": "open_system", "queries_per_stream": 0},
             "queries_per_stream"),
            ({"fragmentation": ("time.month",)}, "fragmentation"),
            ({"fragmentation": ("time::month", "time::quarter")},
             "fragmentation"),
            ({"n_disks": 0}, "n_disks"),
            ({"n_nodes": 0}, "n_nodes"),
            ({"t": 0}, "t must be"),
        ]
        for overrides, field_name in bad_values:
            kwargs = {"fragmentation": ("time::month",), **overrides}
            with pytest.raises(ValueError, match=field_name):
                RunSpec(run_id="a", query="1STORE", **kwargs)

    def test_scenario_spec_validation(self):
        run = RunSpec(run_id="a", query="1STORE",
                      fragmentation=("time::month",))
        with pytest.raises(ValueError, match="duplicate run_ids"):
            ScenarioSpec(name="x", title="x", runs=(run, run))
        with pytest.raises(ValueError, match="fast_run_ids"):
            ScenarioSpec(name="x", title="x", runs=(run,),
                         fast_run_ids=("missing",))
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(name="x", title="x", kind="bogus")

    def test_grid_expands_cartesian_products(self):
        base = RunSpec(run_id="", query="1STORE",
                       fragmentation=("time::month",))
        runs = grid(base, {"n_disks": [10, 20], "t": [1, 2]},
                    "d{n_disks}_t{t}")
        assert [r.run_id for r in runs] == [
            "d10_t1", "d10_t2", "d20_t1", "d20_t2"
        ]
        assert {(r.n_disks, r.t) for r in runs} == {
            (10, 1), (10, 2), (20, 1), (20, 2)
        }

    def test_kinds_are_consistent(self):
        for scenario in iter_scenarios():
            assert scenario.kind in (
                KIND_SIMULATION, KIND_ANALYTIC, KIND_STATIC
            )
