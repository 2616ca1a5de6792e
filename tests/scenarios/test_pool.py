"""Run-point execution: one task per point, serially or in a pool.

For any ``jobs`` count the report fingerprint is byte-identical to the
serial path and the results come back in run order, whatever order the
pool completes them in.  A run point that raises must surface its
``run_id``, not a bare pool traceback, and a worker that dies must
raise instead of hanging the sweep.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro.scenarios import (
    RunExecutionError,
    RunSpec,
    ScenarioRunner,
    ScenarioSpec,
)

F_MG = ("time::month", "product::group")

needs_fork = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods()
    or sys.platform != "linux",
    reason="relies on fork inheriting the monkeypatch into workers",
)


def _tiny_run(run_id: str, n_disks: int = 10, t: int = 2, **kw) -> RunSpec:
    return RunSpec(
        run_id=run_id,
        query="1STORE",
        fragmentation=F_MG,
        schema="tiny",
        n_disks=n_disks,
        n_nodes=2,
        t=t,
        **kw,
    )


def _tiny_scenario() -> ScenarioSpec:
    """Six tiny-schema points on two databases (d=10, d=8)."""
    return ScenarioSpec(
        name="_pool_synthetic",
        title="synthetic pool scenario",
        runs=tuple(
            _tiny_run(f"d{d}_t{t}", n_disks=d, t=t)
            for d in (10, 8)
            for t in (1, 2, 3)
        ),
    )


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return ScenarioRunner(_tiny_scenario(), jobs=1).run()

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_pool_fingerprint_matches_serial(self, serial_report, jobs):
        pooled = ScenarioRunner(_tiny_scenario(), jobs=jobs).run()
        assert (
            pooled.metrics_fingerprint()
            == serial_report.metrics_fingerprint()
        )
        # Not only the (order-insensitive) fingerprint: the report's run
        # order is the serial order too.
        assert [r.run_id for r in pooled.runs] == [
            r.run_id for r in serial_report.runs
        ]

    def test_stable_reports_are_byte_identical_across_jobs(self):
        one = ScenarioRunner(_tiny_scenario(), jobs=1).run()
        two = ScenarioRunner(_tiny_scenario(), jobs=2).run()
        assert json.dumps(one.to_json_dict(stable=True)) == json.dumps(
            two.to_json_dict(stable=True)
        )

    @needs_fork
    def test_results_come_back_in_run_order(self, monkeypatch, tmp_path):
        import repro.scenarios.runner as runner_mod

        real_execute_run = runner_mod.execute_run
        marker = tmp_path / "later_run_done"

        def later_run_first(run):
            # The first run waits until the second has finished, so the
            # pool completes them in the reverse of run order.
            if run.run_id == "first":
                deadline = time.monotonic() + 30.0
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            result = real_execute_run(run)
            if run.run_id == "second":
                marker.touch()
            return result

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(runner_mod, "execute_run", later_run_first)
        scenario = ScenarioSpec(
            name="_pool_order",
            title="a later run finishes first",
            runs=(_tiny_run("first"), _tiny_run("second", t=1)),
        )
        completed = []
        report = ScenarioRunner(
            scenario,
            jobs=2,
            on_run=lambda done, total, result: completed.append(
                (done, total, result.run_id)
            ),
        ).run()
        assert completed == [(1, 2, "second"), (2, 2, "first")]
        assert [r.run_id for r in report.runs] == ["first", "second"]

    def test_serial_progress_follows_run_order(self):
        completed = []
        ScenarioRunner(
            _tiny_scenario(),
            jobs=1,
            on_run=lambda done, total, result: completed.append(
                (done, total, result.run_id)
            ),
        ).run()
        assert completed == [
            (i, 6, run.run_id)
            for i, run in enumerate(_tiny_scenario().runs, start=1)
        ]


class TestSeedAxis:
    def test_seeds_replicate_the_matrix_with_suffixed_ids(self):
        report = ScenarioRunner(
            _tiny_scenario(), seeds=[0, 7], jobs=2
        ).run()
        ids = [r.run_id for r in report.runs]
        assert len(ids) == 12
        assert "d10_t1_s0" in ids and "d10_t1_s7" in ids
        by_id = {r.run_id: r for r in report.runs}
        assert by_id["d10_t1_s0"].config["seed"] == 0
        assert by_id["d10_t1_s7"].config["seed"] == 7
        assert (
            by_id["d10_t1_s0"].config_hash != by_id["d10_t1_s7"].config_hash
        )

    def test_seed_axis_pool_matches_serial(self):
        serial = ScenarioRunner(_tiny_scenario(), seeds=[0, 7], jobs=1).run()
        pooled = ScenarioRunner(_tiny_scenario(), seeds=[0, 7], jobs=4).run()
        assert serial.metrics_fingerprint() == pooled.metrics_fingerprint()

    def test_seed_and_seeds_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="seed or seeds"):
            ScenarioRunner(_tiny_scenario(), seed=1, seeds=[2, 3])

    def test_duplicate_and_empty_seed_lists_are_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ScenarioRunner(_tiny_scenario(), seeds=[1, 1])
        with pytest.raises(ValueError, match="at least one"):
            ScenarioRunner(_tiny_scenario(), seeds=[])


class TestErrorSurfacing:
    def _broken_scenario(self) -> ScenarioSpec:
        from dataclasses import replace

        # The unknown query type passes RunSpec validation but raises at
        # execution time, like any mid-run failure would.
        return ScenarioSpec(
            name="_pool_broken",
            title="one poisoned point",
            runs=(
                _tiny_run("ok_before"),
                replace(_tiny_run("poisoned"), query="NO_SUCH_QUERY"),
                _tiny_run("ok_after"),
            ),
        )

    def test_pool_failure_names_the_run_point(self):
        runner = ScenarioRunner(self._broken_scenario(), jobs=2)
        with pytest.raises(RunExecutionError, match="poisoned") as exc:
            runner.run()
        assert exc.value.run_id == "poisoned"
        # The worker's traceback travels in the message.
        assert "NO_SUCH_QUERY" in str(exc.value)

    def test_serial_failure_chains_the_original_exception(self):
        runner = ScenarioRunner(self._broken_scenario(), jobs=1)
        with pytest.raises(RunExecutionError, match="poisoned") as exc:
            runner.run()
        assert exc.value.run_id == "poisoned"
        # In-process execution keeps the live exception as __cause__.
        assert isinstance(exc.value.__cause__, ValueError)
        assert "NO_SUCH_QUERY" in str(exc.value.__cause__)

    @needs_fork
    def test_abruptly_dead_worker_raises_instead_of_hanging(
        self, monkeypatch
    ):
        import os

        import repro.scenarios.runner as runner_mod

        real_execute_run = runner_mod.execute_run

        def killer(run):
            if run.run_id == "d8_t2":
                os._exit(137)  # simulate an OOM kill, not an exception
            return real_execute_run(run)

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(runner_mod, "execute_run", killer)
        runner = ScenarioRunner(_tiny_scenario(), jobs=2)
        with pytest.raises(RunExecutionError, match="died abruptly") as exc:
            runner.run()
        run_ids = {run.run_id for run in _tiny_scenario().runs}
        assert exc.value.run_id in run_ids


class TestRunnerSurface:
    def test_non_positive_jobs_are_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ScenarioRunner(_tiny_scenario(), jobs=0)

    def test_a_single_run_point_with_many_jobs_runs_in_process(self):
        scenario = ScenarioSpec(
            name="_pool_single", title="one point", runs=(_tiny_run("only"),)
        )
        pooled = ScenarioRunner(scenario, jobs=4).run()
        serial = ScenarioRunner(scenario, jobs=1).run()
        assert pooled.to_json(stable=True) == serial.to_json(stable=True)

    def test_scenario_spec_has_no_pool_knobs(self):
        # Every run point is one pool task; nothing to chunk or opt out of.
        for knob, value in (("chunk_size", 1), ("shardable", False)):
            with pytest.raises(TypeError, match=knob):
                ScenarioSpec(name="_knob", title="knob", **{knob: value})

    def test_warm_caches_describes_every_built_database(self):
        from repro.scenarios import warm_caches

        runs = [_tiny_run("d10", n_disks=10), _tiny_run("d8", n_disks=8)]
        descriptions = warm_caches(runs)
        assert len(descriptions) == len(runs)
        # describe() names the fragmentation and the disk/fragment scale.
        assert all("fragments" in d and "d=" in d for d in descriptions)

    def test_run_execution_error_pickles(self):
        import pickle

        error = RunExecutionError("run point 'x' failed", "x")
        copy = pickle.loads(pickle.dumps(error))
        assert str(copy) == "run point 'x' failed"
        assert copy.run_id == "x"
