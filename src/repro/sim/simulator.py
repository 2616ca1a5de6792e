"""Top-level simulation API.

:class:`ParallelWarehouseSimulator` wires a star schema, a
fragmentation, a disk allocation and a hardware configuration into a
runnable Shared Disk PDBS model, then executes query streams in
single-user mode ("queries are issued sequentially with a new query
starting as soon as the previous one has terminated", Section 5).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.bitmap.catalog import IndexCatalog
from repro.mdhf.query import StarQuery
from repro.mdhf.spec import Fragmentation
from repro.schema.fact import StarSchema
from repro.sim.admission import AdmissionController
from repro.sim.buffer import BufferManager
from repro.sim.config import SimulationParameters, WorkloadParameters
from repro.sim.cpu import ProcessingNode
from repro.sim.database import SimulatedDatabase
from repro.sim.disk import Disk
from repro.sim.engine import Environment
from repro.sim.metrics import QueryMetrics, SimulationResult
from repro.sim.network import Network
from repro.sim.scheduler import QueryExecutor
from repro.workload.arrivals import (
    ArrivalProcess,
    derive_rng,
    partition_sessions,
    think_time_draw,
)


#: SimulationParameters fields that shape the physical database (and
#: therefore the SimulatedDatabase cache key), as opposed to scheduling
#: knobs (node count, task limits, coalescing of the event loop).
def _database_mismatches(
    database: SimulatedDatabase,
    schema: StarSchema,
    fragmentation: Fragmentation,
    params: SimulationParameters,
) -> list[str]:
    """Field names on which a shared database disagrees with ``params``."""
    mismatches = []
    if database.schema is not schema:
        mismatches.append("schema")
    if database.fragmentation != fragmentation:
        mismatches.append("fragmentation")
    db_params = database.params
    if db_params.hardware.n_disks != params.hardware.n_disks:
        mismatches.append("n_disks")
    if db_params.staggered_allocation != params.staggered_allocation:
        mismatches.append("staggered_allocation")
    if db_params.allocation_scheme != params.allocation_scheme:
        mismatches.append("allocation_scheme")
    if db_params.cluster_factor != params.cluster_factor:
        mismatches.append("cluster_factor")
    if db_params.data_skew != params.data_skew:
        mismatches.append("data_skew")
    if db_params.data_skew > 0 and db_params.seed != params.seed:
        mismatches.append("seed (skew permutation)")
    if db_params.buffer != params.buffer:
        mismatches.append("buffer")
    if db_params.io_coalesce != params.io_coalesce:
        mismatches.append("io_coalesce")
    return mismatches


class ParallelWarehouseSimulator:
    """A simulated Shared Disk parallel data warehouse.

    Example::

        sim = ParallelWarehouseSimulator(
            schema=apb1_schema(),
            fragmentation=Fragmentation.parse("time::month", "product::group"),
        )
        result = sim.run([query])
        print(result.avg_response_time)
    """

    def __init__(
        self,
        schema: StarSchema,
        fragmentation: Fragmentation,
        params: SimulationParameters | None = None,
        catalog: IndexCatalog | None = None,
        database: SimulatedDatabase | None = None,
    ):
        self.params = params if params is not None else SimulationParameters()
        if database is not None:
            # A prebuilt (possibly shared) database: run points of one
            # scenario that agree on the physical layout reuse it and
            # differ only in scheduling parameters.  Guard the fields
            # that shape the physical database.
            mismatches = _database_mismatches(database, schema, fragmentation, self.params)
            if mismatches:
                raise ValueError(
                    "shared database incompatible with run parameters: "
                    + ", ".join(mismatches)
                )
            self.database = database
        else:
            self.database = SimulatedDatabase(
                schema=schema,
                fragmentation=fragmentation,
                params=self.params,
                catalog=catalog,
                staggered=self.params.staggered_allocation,
            )

    def _fresh_system(
        self, env: Environment
    ) -> tuple[list[Disk], list[ProcessingNode], Network, list[BufferManager]]:
        """Disks, nodes, network and buffer pools for one run."""
        params = self.params
        disks = [
            Disk(env, params.disk, disk_id)
            for disk_id in range(params.hardware.n_disks)
        ]
        nodes = [
            ProcessingNode(env, node_id, params.hardware.cpu_mips)
            for node_id in range(params.hardware.n_nodes)
        ]
        network = Network(env, params.network)
        buffers = [BufferManager(params.buffer) for _ in nodes]
        return disks, nodes, network, buffers

    @staticmethod
    def _collect_totals(
        result: SimulationResult,
        env: Environment,
        disks: list[Disk],
        nodes: list[ProcessingNode],
        buffers: list[BufferManager],
    ) -> None:
        """Fold device and buffer statistics into the result."""
        result.elapsed = env.now
        for manager in buffers:
            for pool in (manager.fact, manager.bitmap):
                # repro-lint: disable=DET-FLOAT -- integer counters
                result.buffer_hits += pool.hits
                # repro-lint: disable=DET-FLOAT -- integer counters
                result.buffer_misses += pool.misses
        result.disk_busy = [disk.busy_time for disk in disks]
        result.disk_seek = [disk.seek_time for disk in disks]
        result.cpu_busy = [node.busy_time for node in nodes]
        result.event_count = env.event_count

    def run(self, queries: Sequence[StarQuery]) -> SimulationResult:
        """Execute a query stream in single-user mode."""
        if not queries:
            raise ValueError("need at least one query")
        params = self.params
        env = Environment()
        disks, nodes, network, buffers = self._fresh_system(env)
        if len(queries) == 1:
            # One star query never touches the same extent twice —
            # uniform, clustered (each allocation unit's packed bitmap
            # extents and fact ranges are visited by exactly one cluster
            # subquery) or skewed — so the fresh pools can skip
            # residency tracking: no hit is possible and the pools still
            # count every miss (see BufferManager.assume_distinct_accesses
            # for the per-path argument).  Only the pools see the
            # difference; the subqueries run the same code either way.
            # Multi-query streams keep full LRU behaviour.
            for manager in buffers:
                manager.assume_distinct_accesses()
        rng = random.Random(params.seed)

        result = SimulationResult(retention=params.record_retention)
        for query in queries:
            plan = self.database.plan(query)
            executor = QueryExecutor(
                env=env,
                database=self.database,
                plan=plan,
                nodes=nodes,
                disks=disks,
                network=network,
                buffers=buffers,
                rng=rng,
                params=params,
            )
            start = env.now
            process = env.process(executor.body())
            env.run_until_event(process.done)
            result.record(
                QueryMetrics(
                    name=query.name or str(query),
                    response_time=env.now - start,
                    subqueries=executor.io.subqueries,
                    fact_io_ops=executor.io.fact_ops,
                    fact_pages=executor.io.fact_pages,
                    bitmap_io_ops=executor.io.bitmap_ops,
                    bitmap_pages=executor.io.bitmap_pages,
                    coordinator_node=executor.coordinator_id,
                )
            )

        self._collect_totals(result, env, disks, nodes, buffers)
        return result

    def run_repeated(self, query: StarQuery, repetitions: int) -> SimulationResult:
        """Run the same query type several times (parameters fixed)."""
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        return self.run([query] * repetitions)

    def run_multi_user(
        self, streams: Sequence[Sequence[StarQuery]]
    ) -> SimulationResult:
        """Execute several closed query streams concurrently.

        Multi-user mode — listed as future work in the paper's Section 7
        ("the consequences of multi-user mode").  Each stream models one
        user session: its queries run back to back, while the streams
        themselves compete for disks, CPUs and buffer space.  Response
        times in the result are per query, in stream completion order.

        Each executor draws its coordinator from an RNG derived from
        ``(seed, stream, query)`` rather than one shared stream, so the
        draws are invariant to how the streams happen to interleave.
        """
        if not streams or not all(streams):
            raise ValueError("need at least one non-empty stream")
        params = self.params
        env = Environment()
        disks, nodes, network, buffers = self._fresh_system(env)

        result = SimulationResult(retention=params.record_retention)

        def stream_body(stream_id: int, queries: Sequence[StarQuery]):
            for q_index, query in enumerate(queries):
                plan = self.database.plan(query)
                executor = QueryExecutor(
                    env=env,
                    database=self.database,
                    plan=plan,
                    nodes=nodes,
                    disks=disks,
                    network=network,
                    buffers=buffers,
                    rng=derive_rng(params.seed, "multiuser", stream_id, q_index),
                    params=params,
                )
                start = env.now
                process = env.process(executor.body())
                yield process.done
                result.record(
                    QueryMetrics(
                        name=query.name or str(query),
                        response_time=env.now - start,
                        subqueries=executor.io.subqueries,
                        fact_io_ops=executor.io.fact_ops,
                        fact_pages=executor.io.fact_pages,
                        bitmap_io_ops=executor.io.bitmap_ops,
                        bitmap_pages=executor.io.bitmap_pages,
                        coordinator_node=executor.coordinator_id,
                        stream=stream_id,
                    )
                )

        processes = [
            env.process(stream_body(stream_id, stream))
            for stream_id, stream in enumerate(streams)
        ]
        env.run()
        if not all(process.done.triggered for process in processes):
            raise RuntimeError("a query stream did not complete")

        self._collect_totals(result, env, disks, nodes, buffers)
        return result

    def run_open_system(
        self,
        sessions: Sequence[Sequence[StarQuery]] | int,
        workload: WorkloadParameters | None = None,
        *,
        query_factory=None,
        session_slice: tuple[int, int] | None = None,
    ) -> SimulationResult:
        """Execute an open-system workload: sessions *arrive* over time.

        Each session arrives according to ``workload.arrival_process``
        (Poisson, fixed-rate or bursty at ``arrival_rate_qps``), then
        issues its queries in order, pausing for an exponential think
        time of mean ``think_time_s`` between consecutive queries
        (closed/open hybrid; 0 = pure open).  Every query passes through
        an MPL-capped FIFO :class:`AdmissionController`, and the result
        records queueing delay (arrival -> admission) separately from
        service time (admission -> completion).

        ``sessions`` is either a materialised list of query lists, or a
        session *count* paired with ``query_factory`` — a callable
        mapping a session id to that session's query list.  The factory
        form instantiates each session lazily at its arrival instant
        and is the bounded-memory path for warehouse-scale runs: with
        ``record_retention="bounded"`` nothing in the run grows with
        the session count (beyond admission backlog).  Both forms
        produce byte-identical results when the factory returns the
        same queries the list would have held.

        All stochastic draws — arrival gaps, think times, coordinator
        choices — come from RNGs derived from ``(seed, site, session,
        query)``, so a run is bit-reproducible under a fixed seed and
        invariant to event-interleaving refactors.

        ``session_slice=(start, stop)`` simulates only that contiguous
        partition of the session axis — the stream-sharding worker path
        (see :meth:`run_open_system_sharded`).  Arrival draws still
        come from the one serial RNG stream and each in-slice session
        arrives at its bit-exact serial instant
        (:meth:`~repro.workload.arrivals.ArrivalProcess.iter_arrival_slice`);
        only the *other* slices' load is absent.  ``None`` (the
        default) is exactly the historical full-axis behaviour; an
        empty slice returns an empty result.
        """
        if isinstance(sessions, int):
            if query_factory is None:
                raise ValueError(
                    "a session count needs a query_factory to draw "
                    "each session's queries from"
                )
            if sessions < 1:
                raise ValueError("need at least one session")
            session_count = sessions

            def session_queries(session_id: int) -> Sequence[StarQuery]:
                queries = query_factory(session_id)
                if not queries:
                    raise ValueError(
                        f"query_factory produced an empty session "
                        f"{session_id}"
                    )
                return queries
        else:
            if query_factory is not None:
                raise ValueError(
                    "query_factory only combines with a session count"
                )
            if not sessions or not all(sessions):
                raise ValueError("need at least one non-empty session")
            session_count = len(sessions)
            session_queries = sessions.__getitem__
        if session_slice is None:
            slice_start, slice_stop = 0, session_count
        else:
            slice_start, slice_stop = session_slice
            if not 0 <= slice_start <= slice_stop <= session_count:
                raise ValueError(
                    f"session_slice [{slice_start}, {slice_stop}) out of "
                    f"range for {session_count} sessions"
                )
        slice_sessions = slice_stop - slice_start
        params = self.params
        workload = workload if workload is not None else params.workload
        arrivals = ArrivalProcess(
            kind=workload.arrival_process,
            rate_qps=workload.arrival_rate_qps,
            burst_size=workload.burst_size,
        )
        env = Environment()
        disks, nodes, network, buffers = self._fresh_system(env)
        controller = AdmissionController(env, workload.max_mpl)

        result = SimulationResult(retention=params.record_retention)
        completed_sessions = 0

        def session_body(session_id: int, queries: Sequence[StarQuery]):
            nonlocal completed_sessions
            think_rng = derive_rng(params.seed, "think", session_id)
            for q_index, query in enumerate(queries):
                if q_index and workload.think_time_s:
                    pause = think_time_draw(think_rng, workload.think_time_s)
                    if pause:
                        yield env.timeout(pause)
                arrived = env.now
                yield controller.request()
                admitted = env.now
                plan = self.database.plan(query)
                executor = QueryExecutor(
                    env=env,
                    database=self.database,
                    plan=plan,
                    nodes=nodes,
                    disks=disks,
                    network=network,
                    buffers=buffers,
                    rng=derive_rng(params.seed, "open", session_id, q_index),
                    params=params,
                )
                process = env.process(executor.body())
                yield process.done
                controller.release()
                result.record(
                    QueryMetrics(
                        name=query.name or str(query),
                        response_time=env.now - admitted,
                        subqueries=executor.io.subqueries,
                        fact_io_ops=executor.io.fact_ops,
                        fact_pages=executor.io.fact_pages,
                        bitmap_io_ops=executor.io.bitmap_ops,
                        bitmap_pages=executor.io.bitmap_pages,
                        coordinator_node=executor.coordinator_id,
                        stream=session_id,
                        arrived_at=arrived,
                        admitted_at=admitted,
                        queue_delay=admitted - arrived,
                    )
                )
            completed_sessions += 1

        # A counter instead of a list of session processes: completion
        # tracking must not grow with the session count.
        spawned_sessions = 0

        def source_body():
            nonlocal spawned_sessions
            # The full axis is the (0, count) slice: iter_arrival_slice
            # yields the same (session, delay) pairs bit for bit there
            # (0.0 + g0 == g0), so serial and sharded runs share one
            # arrival path.
            pairs = arrivals.iter_arrival_slice(
                session_count, params.seed, slice_start, slice_stop
            )
            for session_id, delay in pairs:
                if delay:
                    yield env.timeout(delay)
                env.process(
                    session_body(session_id, session_queries(session_id))
                )
                spawned_sessions += 1

        source = env.process(source_body())
        env.run()
        if (
            not source.done.triggered
            or spawned_sessions != slice_sessions
            or completed_sessions != slice_sessions
        ):
            raise RuntimeError("an open-system session did not complete")

        self._collect_totals(result, env, disks, nodes, buffers)
        result.peak_mpl = controller.peak_active
        result.peak_queue_length = controller.peak_waiting
        result.queued_arrivals = controller.queued_total
        return result

    def run_open_system_sharded(
        self,
        sessions: Sequence[Sequence[StarQuery]] | int,
        workload: WorkloadParameters | None = None,
        *,
        query_factory=None,
        stream_shards: int | None = None,
    ) -> SimulationResult:
        """Split the session axis into shards, simulate each, fold exactly.

        The in-process form of stream sharding: the session axis is cut
        into :func:`~repro.workload.arrivals.partition_sessions` slices,
        each slice runs as an independent :meth:`run_open_system`
        partition (bounded retention keeps every slice O(1) in memory),
        and the per-slice results fold incrementally through the exact
        merge algebra — so the fold itself never holds more than one
        un-merged shard.  ``stream_shards`` defaults to
        ``params.stream_shards``; ``1`` falls through to the serial
        path unchanged.

        Shards with more than one slice are a *declared* approximation
        of cross-slice contention — see
        :attr:`~repro.sim.config.SimulationParameters.stream_shards`.
        Aggregates are deterministic for any shard count and identical
        whether the slices run here or across worker processes.
        """
        shards = (
            stream_shards if stream_shards is not None
            else self.params.stream_shards
        )
        if shards < 1:
            raise ValueError("stream_shards must be >= 1")
        if shards == 1:
            return self.run_open_system(
                sessions, workload, query_factory=query_factory
            )
        count = sessions if isinstance(sessions, int) else len(sessions)
        merged = SimulationResult(
            retention=self.params.record_retention
        )
        for session_slice in partition_sessions(count, shards):
            merged = merged.merge(
                self.run_open_system(
                    sessions,
                    workload,
                    query_factory=query_factory,
                    session_slice=session_slice,
                )
            )
        return merged
