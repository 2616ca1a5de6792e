"""Open-system mode: arrivals, admission control, queue-delay accounting.

The engine-invariant probe: a recording subclass of
:class:`AdmissionController` is injected into the simulator module so
every admission/release transition during the run is observed — the MPL
cap can then be asserted over the whole event history, not just at the
end.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.mdhf.query import Predicate, StarQuery
from repro.mdhf.spec import Fragmentation
from repro.sim.admission import AdmissionController
from repro.sim.config import SimulationParameters, WorkloadParameters
from repro.sim.simulator import ParallelWarehouseSimulator
from repro.workload.arrivals import ARRIVAL_KINDS, ArrivalProcess

from repro.sim import simulator as simulator_module


def tiny_params(**kwargs):
    hw = dict(n_disks=8, n_nodes=4, subqueries_per_node=2)
    hw.update({
        k: v for k, v in kwargs.items()
        if k in ("n_disks", "n_nodes", "subqueries_per_node")
    })
    extra = {k: v for k, v in kwargs.items() if k not in hw}
    return replace(SimulationParameters().with_hardware(**hw), **extra)


@pytest.fixture
def tiny_frag():
    return Fragmentation.parse("time::month", "product::group")


@pytest.fixture
def tiny_sim(tiny, tiny_frag):
    return ParallelWarehouseSimulator(tiny, tiny_frag, tiny_params())


def month_query(month: int = 3) -> StarQuery:
    return StarQuery([Predicate.parse("time::month", month)], name="1MONTH")


def sessions_of(n: int, queries_each: int = 1):
    return [
        [month_query((s + q) % 12) for q in range(queries_each)]
        for s in range(n)
    ]


class ProbingController(AdmissionController):
    """Records (time, active) at every admission transition."""

    samples: list[tuple[float, int]]

    def __init__(self, env, max_mpl=None):
        super().__init__(env, max_mpl)
        self.samples = []

    def _grant(self, event):
        super()._grant(event)
        self.samples.append((self.env.now, self.active))

    def release(self):
        super().release()
        self.samples.append((self.env.now, self.active))


class TestDeterminism:
    def test_same_seed_identical_results(self, tiny_sim):
        workload = WorkloadParameters(
            arrival_process="poisson", arrival_rate_qps=10.0, max_mpl=2
        )
        def snapshot():
            result = tiny_sim.run_open_system(sessions_of(8), workload)
            return [
                (q.stream, q.arrived_at, q.admitted_at, q.queue_delay,
                 q.response_time, q.coordinator_node)
                for q in result.queries
            ]
        assert snapshot() == snapshot()

    def test_seed_changes_results(self, tiny, tiny_frag):
        workload = WorkloadParameters(arrival_rate_qps=10.0)
        a = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(seed=0)
        ).run_open_system(sessions_of(6), workload)
        b = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(seed=1)
        ).run_open_system(sessions_of(6), workload)
        assert [q.arrived_at for q in a.queries] != [
            q.arrived_at for q in b.queries
        ]


class TestAdmissionInvariant:
    @pytest.mark.parametrize("max_mpl", [1, 2, 3])
    def test_mpl_cap_never_exceeded(self, tiny_sim, monkeypatch, max_mpl):
        probes = []

        def make_probe(env, cap=None):
            probe = ProbingController(env, cap)
            probes.append(probe)
            return probe

        monkeypatch.setattr(
            simulator_module, "AdmissionController", make_probe
        )
        workload = WorkloadParameters(
            arrival_process="bursty", arrival_rate_qps=50.0, burst_size=6,
            max_mpl=max_mpl,
        )
        result = tiny_sim.run_open_system(sessions_of(12), workload)
        (probe,) = probes
        assert probe.samples, "probe saw no admission transitions"
        assert all(active <= max_mpl for _, active in probe.samples)
        assert result.peak_mpl == max_mpl  # saturating load hits the cap
        assert result.peak_mpl == max(active for _, active in probe.samples)

    def test_uncapped_peak_tracks_concurrency(self, tiny_sim):
        workload = WorkloadParameters(
            arrival_process="bursty", arrival_rate_qps=100.0, burst_size=8
        )
        result = tiny_sim.run_open_system(sessions_of(8), workload)
        assert result.peak_mpl == 8  # a whole batch in the system at once
        assert result.queued_arrivals == 0
        assert result.avg_queue_delay == 0.0


class TestQueueDelayAccounting:
    def test_delays_sum_to_elapsed_bounds(self, tiny_sim):
        workload = WorkloadParameters(
            arrival_process="bursty", arrival_rate_qps=30.0, burst_size=5,
            max_mpl=2,
        )
        result = tiny_sim.run_open_system(sessions_of(10), workload)
        assert result.query_count == 10
        for q in result.queries:
            assert q.arrived_at >= 0
            assert q.admitted_at == pytest.approx(
                q.arrived_at + q.queue_delay
            )
            assert q.queue_delay >= 0
            # Admission + service never exceeds the simulated horizon.
            assert q.admitted_at + q.response_time <= result.elapsed + 1e-9
            assert q.total_delay == pytest.approx(
                q.queue_delay + q.response_time
            )
        assert result.queued_arrivals > 0
        assert result.max_queue_delay >= result.avg_queue_delay > 0
        assert result.peak_queue_length >= 1

    def test_fixed_arrivals_are_periodic(self, tiny_sim):
        workload = WorkloadParameters(
            arrival_process="fixed", arrival_rate_qps=2.0
        )
        result = tiny_sim.run_open_system(sessions_of(4), workload)
        arrived = sorted(q.arrived_at for q in result.queries)
        assert arrived == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_single_session_is_a_closed_stream(self, tiny_sim):
        # One session, no think time, no cap: elapsed is the arrival
        # instant plus the back-to-back service times.
        workload = WorkloadParameters(
            arrival_process="fixed", arrival_rate_qps=4.0
        )
        result = tiny_sim.run_open_system(
            [[month_query(0), month_query(1)]], workload
        )
        assert result.elapsed == pytest.approx(
            0.25 + sum(q.response_time for q in result.queries)
        )
        assert all(q.queue_delay == 0.0 for q in result.queries)

    def test_percentiles_and_per_stream_in_result(self, tiny_sim):
        workload = WorkloadParameters(
            arrival_rate_qps=20.0, max_mpl=2
        )
        result = tiny_sim.run_open_system(sessions_of(6, 2), workload)
        p50 = result.response_time_percentile(50)
        p95 = result.response_time_percentile(95)
        assert p50 <= p95 <= result.max_response_time
        per_stream = result.per_stream()
        assert sorted(per_stream) == list(range(6))
        assert all(stats.query_count == 2 for stats in per_stream.values())


class TestThinkTimes:
    def test_think_time_stretches_the_run(self, tiny_sim):
        sessions = sessions_of(4, 3)
        quick = tiny_sim.run_open_system(
            sessions, WorkloadParameters(arrival_rate_qps=10.0)
        )
        thoughtful = tiny_sim.run_open_system(
            sessions,
            WorkloadParameters(arrival_rate_qps=10.0, think_time_s=2.0),
        )
        assert quick.query_count == thoughtful.query_count == 12
        assert thoughtful.elapsed > quick.elapsed
        assert thoughtful.throughput_qps < quick.throughput_qps

    def test_think_time_is_not_queue_delay(self, tiny_sim):
        # Thinking happens outside the admission queue: uncapped runs
        # stay at zero queue delay whatever the think time.
        result = tiny_sim.run_open_system(
            sessions_of(3, 3),
            WorkloadParameters(arrival_rate_qps=10.0, think_time_s=1.0),
        )
        assert result.avg_queue_delay == 0.0


class TestValidation:
    def test_empty_sessions_rejected(self, tiny_sim):
        with pytest.raises(ValueError):
            tiny_sim.run_open_system([], WorkloadParameters())
        with pytest.raises(ValueError):
            tiny_sim.run_open_system([[]], WorkloadParameters())

    def test_default_workload_comes_from_params(self, tiny, tiny_frag):
        workload = WorkloadParameters(
            arrival_process="fixed", arrival_rate_qps=2.0
        )
        sim = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(workload=workload)
        )
        result = sim.run_open_system(sessions_of(2))
        assert sorted(q.arrived_at for q in result.queries) == pytest.approx(
            [0.5, 1.0]
        )


def snapshot_of(result):
    return [
        (q.stream, q.arrived_at, q.admitted_at, q.queue_delay,
         q.response_time, q.coordinator_node)
        for q in result.queries
    ]


def kind_workload(kind: str) -> WorkloadParameters:
    return WorkloadParameters(
        arrival_process=kind, arrival_rate_qps=10.0, burst_size=3,
        max_mpl=4,
    )


class TestSerialArrivalSource:
    """One serial draw feeds the whole session axis, for every arrival
    kind: each session arrives at its ``arrival_times`` instant, runs
    exactly once, and the run repeats bit for bit."""

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_sessions_arrive_at_serial_instants(self, tiny_sim, kind):
        result = tiny_sim.run_open_system(sessions_of(9), kind_workload(kind))
        instants = ArrivalProcess(
            kind=kind, rate_qps=10.0, burst_size=3
        ).arrival_times(9, tiny_sim.params.seed)
        # Single-query sessions: each query arrives with its session,
        # at the serial instant bit for bit.
        assert {q.stream: q.arrived_at for q in result.queries} == dict(
            enumerate(instants)
        )

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_every_session_runs_once(self, tiny_sim, kind):
        result = tiny_sim.run_open_system(
            sessions_of(7, queries_each=2), kind_workload(kind)
        )
        assert result.query_count == 14
        assert sorted(q.stream for q in result.queries) == sorted(
            s for s in range(7) for _ in range(2)
        )

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_repeat_run_is_identical(self, tiny_sim, kind):
        first, second = (
            tiny_sim.run_open_system(sessions_of(10), kind_workload(kind))
            for _ in range(2)
        )
        assert snapshot_of(first) == snapshot_of(second)
        for attribute in ("elapsed", "peak_mpl", "queued_arrivals",
                          "buffer_hits"):
            assert getattr(first, attribute) == getattr(second, attribute)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_bounded_retention_keeps_the_aggregates(
        self, tiny, tiny_frag, tiny_sim, kind
    ):
        bounded_sim = ParallelWarehouseSimulator(
            tiny, tiny_frag, tiny_params(record_retention="bounded")
        )
        full = tiny_sim.run_open_system(sessions_of(8), kind_workload(kind))
        bounded = bounded_sim.run_open_system(
            sessions_of(8), kind_workload(kind)
        )
        assert full.records_retained == 8
        assert bounded.records_retained == 0
        for attribute in (
            "query_count", "elapsed", "peak_mpl", "queued_arrivals",
            "buffer_hits", "total_pages", "avg_response_time",
            "max_response_time", "avg_queue_delay", "max_queue_delay",
            "avg_total_delay",
        ):
            assert getattr(bounded, attribute) == getattr(full, attribute)
        for p in (0, 50, 95, 100):
            assert bounded.response_time_percentile(p) == \
                full.response_time_percentile(p)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_elapsed_covers_the_last_arrival(self, tiny_sim, kind):
        result = tiny_sim.run_open_system(sessions_of(6), kind_workload(kind))
        last_arrival = ArrivalProcess(
            kind=kind, rate_qps=10.0, burst_size=3
        ).arrival_times(6, tiny_sim.params.seed)[-1]
        assert result.elapsed > last_arrival
        # The run ends with its last completion.
        assert result.elapsed == pytest.approx(
            max(q.admitted_at + q.response_time for q in result.queries)
        )


class TestSessionFactory:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_factory_matches_materialised_sessions(self, tiny_sim, kind):
        sessions = sessions_of(6, queries_each=2)
        listed = tiny_sim.run_open_system(sessions, kind_workload(kind))
        drawn = tiny_sim.run_open_system(
            6, kind_workload(kind), query_factory=sessions.__getitem__
        )
        assert snapshot_of(drawn) == snapshot_of(listed)
        assert drawn.elapsed == listed.elapsed
        assert drawn.peak_mpl == listed.peak_mpl

    @pytest.mark.parametrize("sessions, factory, match", [
        (3, None, "query_factory"),
        (0, lambda s: [month_query()], "at least one session"),
        ([[month_query()]], lambda s: [month_query()], "only combines"),
        (3, lambda s: [] if s == 1 else [month_query()], "empty session 1"),
        (True, lambda s: [month_query()],
         r"session count must be an integer, got True"),
        (2.0, lambda s: [month_query()],
         r"session count must be an integer, got 2\.0"),
    ], ids=["count-without-factory", "zero-count", "list-with-factory",
            "empty-drawn-session", "bool-count", "float-count"])
    def test_factory_form_validation(self, tiny_sim, sessions, factory,
                                     match):
        with pytest.raises(ValueError, match=match):
            tiny_sim.run_open_system(
                sessions, WorkloadParameters(), query_factory=factory
            )


class TestMultiUserRngFix:
    """Closed-stream regression: the per-(stream, query) RNG makes
    coordinator draws invariant to which other streams run alongside."""

    def test_stream_draws_invariant_to_other_streams(self, tiny_sim):
        solo = tiny_sim.run_multi_user([[month_query(0), month_query(1)]])
        paired = tiny_sim.run_multi_user(
            [
                [month_query(0), month_query(1)],
                [month_query(5), month_query(6)],
            ]
        )
        solo_coords = [
            q.coordinator_node for q in solo.queries if q.stream == 0
        ]
        paired_coords = [
            q.coordinator_node for q in paired.queries if q.stream == 0
        ]
        assert solo_coords == paired_coords

    def test_multi_user_repeatable(self, tiny_sim):
        streams = [[month_query(m), month_query(m + 1)] for m in range(3)]
        def snapshot():
            result = tiny_sim.run_multi_user(streams)
            return [
                (q.stream, q.response_time, q.coordinator_node)
                for q in result.queries
            ]
        assert snapshot() == snapshot()

    def test_streams_tagged_with_ids(self, tiny_sim):
        result = tiny_sim.run_multi_user(
            [[month_query(0)], [month_query(1)], [month_query(2)]]
        )
        assert sorted(q.stream for q in result.queries) == [0, 1, 2]
