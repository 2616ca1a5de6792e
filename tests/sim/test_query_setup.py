"""The per-run query-setup memo (:class:`repro.sim.scheduler.QuerySetup`).

A run plans each distinct predicate tuple once and keeps a query's
expanded work units from its second sight on.  The memo must be
invisible in the physics: every test compares against the same run with
the memo switched off (``QUERY_MEMO_CAP`` patched to 0, so nothing is
kept and every query is planned and expanded afresh).
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.mdhf.query import Predicate, StarQuery
from repro.mdhf.spec import Fragmentation
from repro.sim import scheduler as scheduler_module
from repro.sim import simulator as simulator_module
from repro.sim.config import SimulationParameters, WorkloadParameters
from repro.sim.database import SubqueryWork
from repro.sim.engine import Environment
from repro.sim.scheduler import QuerySetup
from repro.sim.simulator import ParallelWarehouseSimulator


def tiny_params(**extra):
    params = SimulationParameters().with_hardware(
        n_disks=8, n_nodes=4, subqueries_per_node=2
    )
    return replace(params, **extra)


#: Uniform, skewed and clustered databases: the three expansion shapes.
DATABASES = {
    "uniform": {},
    "skewed": {"data_skew": 0.8},
    "clustered": {"cluster_factor": 4},
}


def month(value: int, name: str = "1MONTH") -> StarQuery:
    return StarQuery([Predicate.parse("time::month", value)], name=name)


def store(value: int, name: str = "1STORE") -> StarQuery:
    return StarQuery([Predicate.parse("customer::store", value)], name=name)


def stream() -> list[StarQuery]:
    """Repeats of fact-only (1MONTH) and bitmap (1STORE) queries."""
    return [month(3), store(7), month(3), store(7), month(5), store(7)]


@pytest.fixture
def frag():
    return Fragmentation.parse("time::month", "product::group")


class RecordingSetup(QuerySetup):
    """A QuerySetup that remembers every instance and its peak."""

    instances: list["RecordingSetup"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak = 0
        RecordingSetup.instances.append(self)

    def work(self, query):
        units = super().work(query)
        self.peak = max(self.peak, self.retained)
        return units


@pytest.fixture
def recorded(monkeypatch):
    """The QuerySetup instances the simulator builds, in order."""
    RecordingSetup.instances = []
    monkeypatch.setattr(simulator_module, "QuerySetup", RecordingSetup)
    return RecordingSetup.instances


def physics(result) -> tuple:
    """Everything a run measures, for exact comparison."""
    return (
        result.queries,
        result.elapsed,
        result.disk_busy,
        result.disk_seek,
        result.cpu_busy,
        result.buffer_hits,
        result.buffer_misses,
        result.event_count,
        result.peak_mpl,
        result.peak_queue_length,
        result.queued_arrivals,
    )


def run_mode(sim: ParallelWarehouseSimulator, mode: str):
    queries = stream()
    if mode == "run":
        return sim.run(queries)
    if mode == "multi_user":
        return sim.run_multi_user([queries, queries[::-1], queries[1:]])
    workload = WorkloadParameters(
        arrival_rate_qps=20.0, max_mpl=2, think_time_s=0.05
    )
    return sim.run_open_system(
        [queries[:3], queries[3:], queries, [store(7)]], workload
    )


def memo_off(monkeypatch) -> None:
    monkeypatch.setattr(scheduler_module, "QUERY_MEMO_CAP", 0)


class TestMemoIsInvisible:
    @pytest.mark.parametrize("mode", ["run", "multi_user", "open_system"])
    @pytest.mark.parametrize("database", sorted(DATABASES))
    def test_memo_on_equals_memo_off(
        self, tiny, frag, monkeypatch, recorded, mode, database
    ):
        sim = ParallelWarehouseSimulator(
            tiny, frag, tiny_params(**DATABASES[database])
        )
        with_memo = run_mode(sim, mode)
        (setup,) = recorded
        # Two plans plus the kept units of both repeated queries.
        assert setup.retained > 2
        memo_off(monkeypatch)
        without = run_mode(sim, mode)
        assert recorded[1].retained == 0
        assert physics(with_memo) == physics(without)

    def test_query_over_the_remaining_budget_runs_unkept(
        self, tiny, frag, monkeypatch, recorded
    ):
        # 1STORE touches every one of the 288 fragments: with a cap of
        # 100 its units never fit, so each repeat runs a kept-size head
        # and then the rest of a fresh expansion.
        sim = ParallelWarehouseSimulator(tiny, frag, tiny_params())
        queries = [store(7)] * 3
        monkeypatch.setattr(scheduler_module, "QUERY_MEMO_CAP", 100)
        capped = sim.run(queries)
        assert recorded[0].retained == 1
        memo_off(monkeypatch)
        assert physics(capped) == physics(sim.run(queries))


class TestKeptUnits:
    def test_kept_units_equal_a_fresh_expansion(self, tiny, frag):
        for extra in DATABASES.values():
            sim = ParallelWarehouseSimulator(tiny, frag, tiny_params(**extra))
            database = sim.database
            env = Environment()
            disks, nodes, network, buffers = sim._fresh_system(env)
            setup = QuerySetup(
                env, database, disks, nodes, network, buffers, sim.params
            )
            for query in (store(7), month(3)):
                first = setup.work(query)
                assert not isinstance(first, tuple)  # first sight: lazy
                kept = setup.work(query)
                assert isinstance(kept, tuple)
                assert setup.work(query) is kept
                fresh = list(
                    database.iter_subquery_work(database.plan(query))
                )
                assert len(kept) == len(fresh) > 0
                for unit, expected in zip(kept, fresh):
                    for field in fields(SubqueryWork):
                        assert getattr(unit, field.name) == getattr(
                            expected, field.name
                        ), field.name

    def test_single_query_run_keeps_no_units(self, tiny, frag, recorded):
        sim = ParallelWarehouseSimulator(tiny, frag, tiny_params())
        sim.run([store(7)])
        sim.run_repeated(month(3), 1)
        # One plan each, and no work unit.
        assert [setup.retained for setup in recorded] == [1, 1]

    def test_cap_holds_when_distinct_queries_exceed_it(
        self, tiny, frag, monkeypatch, recorded
    ):
        # Twelve distinct 1MONTH queries of 24 units each, every one
        # repeated: far more than a cap of 60 can keep.
        sim = ParallelWarehouseSimulator(tiny, frag, tiny_params())
        queries = [month(m) for m in range(12)] * 3
        monkeypatch.setattr(scheduler_module, "QUERY_MEMO_CAP", 60)
        capped = sim.run(queries)
        (setup,) = recorded
        assert 0 < setup.peak <= 60
        assert setup.retained <= 60
        memo_off(monkeypatch)
        assert physics(capped) == physics(sim.run(queries))

    def test_equal_predicates_keep_their_own_names(self, tiny, frag):
        sim = ParallelWarehouseSimulator(tiny, frag, tiny_params())
        queries = [month(3, "A"), month(3, "B"), month(3, "A")]
        result = sim.run(queries)
        assert [q.name for q in result.queries] == ["A", "B", "A"]
        streams = sim.run_multi_user([queries, queries[::-1]])
        assert sorted(q.name for q in streams.queries) == [
            "A", "A", "A", "A", "B", "B",
        ]
        open_result = sim.run_open_system(
            [queries], WorkloadParameters(arrival_rate_qps=5.0)
        )
        assert [q.name for q in open_result.queries] == ["A", "B", "A"]


class TestThinkTimeRng:
    def test_derived_only_at_a_sessions_first_pause(
        self, tiny, frag, monkeypatch
    ):
        salts = []
        derive = simulator_module.derive_rng

        def counting(seed, *salt):
            salts.append(salt)
            return derive(seed, *salt)

        monkeypatch.setattr(simulator_module, "derive_rng", counting)
        sim = ParallelWarehouseSimulator(tiny, frag, tiny_params())
        workload = WorkloadParameters(arrival_rate_qps=5.0, think_time_s=0.1)
        sim.run_open_system(
            [[month(1)], [month(2), month(3), month(4)], [month(5)]], workload
        )
        assert [salt for salt in salts if salt[0] == "think"] == [
            ("think", 1)
        ]
