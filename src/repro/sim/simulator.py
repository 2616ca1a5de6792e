"""Top-level simulation API.

:class:`ParallelWarehouseSimulator` wires a star schema, a
fragmentation, a disk allocation and a hardware configuration into a
runnable Shared Disk PDBS model, then runs *sessions* on it.  A session
issues its queries back to back, "a new query starting as soon as the
previous one has terminated" (Section 5): the paper's single-user mode
is one such session.  One driver runs every mode; the modes differ only
in three inputs:

* the **arrival source**: every session at t = 0, started in id order
  (single-user, closed multi-user), or sessions arriving over time from
  an :class:`~repro.workload.arrivals.ArrivalProcess` (open system);
* the **RNG policy** of the coordinator draws: one shared
  ``random.Random(seed)`` (single-user), or an RNG derived from
  ``(seed, mode, session, query)`` (multi-user and open system);
* **admission**: only open-system sessions pause for think times and
  pass an MPL-capped :class:`~repro.sim.admission.AdmissionController`.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro.bitmap.catalog import IndexCatalog
from repro.mdhf.query import StarQuery
from repro.mdhf.spec import Fragmentation
from repro.schema.fact import StarSchema
from repro.sim.admission import AdmissionController
from repro.sim.buffer import BufferManager
from repro.sim.config import SimulationParameters, WorkloadParameters
from repro.sim.cpu import ProcessingNode
from repro.sim.database import SimulatedDatabase, database_fields
from repro.sim.disk import Disk
from repro.sim.engine import Environment
from repro.sim.metrics import QueryMetrics, SimulationResult
from repro.sim.network import Network
from repro.sim.scheduler import QuerySetup
from repro.workload.arrivals import ArrivalProcess, derive_rng, think_time_draw


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
        if database is None:
            database = SimulatedDatabase(
                schema, fragmentation, self.params, catalog
            )
        else:
            # A prebuilt (possibly shared) database: run points of one
            # scenario that agree on the physical layout reuse it and
            # differ only in scheduling parameters.  Guard the fields
            # that shape the physical database.
            have = database_fields(
                database.schema, database.fragmentation, database.params
            )
            want = database_fields(schema, fragmentation, self.params)
            mismatches = [
                name for (name, value), (_, wanted) in zip(have, want)
                if value != wanted
            ]
            if mismatches:
                raise ValueError(
                    "shared database incompatible with run parameters: "
                    + ", ".join(mismatches)
                )
        self.database = database

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
        return self._run_sessions(1, [queries].__getitem__, None)

    def run_repeated(self, query: StarQuery, repetitions: int) -> SimulationResult:
        """Run the same query type several times (parameters fixed)."""
        _check_count(repetitions, "repetitions")
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
        return self._run_sessions(
            len(streams), streams.__getitem__, "multiuser"
        )

    def run_open_system(
        self,
        sessions: Sequence[Sequence[StarQuery]] | int,
        workload: WorkloadParameters | None = None,
        *,
        query_factory=None,
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
        """
        if isinstance(sessions, Sequence):
            if query_factory is not None:
                raise ValueError(
                    "query_factory only combines with a session count"
                )
            if not sessions or not all(sessions):
                raise ValueError("need at least one non-empty session")
            count, queries_of = len(sessions), sessions.__getitem__
        elif query_factory is None:
            raise ValueError(
                "a session count needs a query_factory to draw each "
                "session's queries from"
            )
        else:
            count = sessions

            def queries_of(session_id: int) -> Sequence[StarQuery]:
                queries = query_factory(session_id)
                if not queries:
                    raise ValueError(
                        f"query_factory produced an empty session {session_id}"
                    )
                return queries
        workload = workload if workload is not None else self.params.workload
        return self._run_sessions(count, queries_of, "open", workload)

    def _run_sessions(
        self,
        session_count: int,
        queries_of: Callable[[int], Sequence[StarQuery]],
        rng_salt: str | None,
        workload: WorkloadParameters | None = None,
    ) -> SimulationResult:
        """Run sessions ``0 .. session_count - 1`` on a fresh system.

        Session ``s`` runs ``queries_of(s)``, drawn when it starts.
        Coordinators draw from one shared ``random.Random(seed)`` when
        ``rng_salt`` is None, else query ``q`` of session ``s`` from
        ``derive_rng(seed, rng_salt, s, q)``.  Without ``workload`` every
        session starts at t = 0, in id order; with it, sessions arrive
        by its arrival process, pause for its think times and pass an
        MPL-capped admission controller.
        """
        _check_count(session_count, "session count")
        if session_count < 1:
            raise ValueError("need at least one session")
        params = self.params
        env = Environment()
        disks, nodes, network, buffers = self._fresh_system(env)
        controller = None
        if workload is not None:
            controller = AdmissionController(env, workload.max_mpl)
            think_time = workload.think_time_s
        shared_rng = random.Random(params.seed) if rng_salt is None else None
        setup = QuerySetup(
            env, self.database, disks, nodes, network, buffers, params
        )
        result = SimulationResult(retention=params.record_retention)
        completed_sessions = 0

        def session_body(session_id: int, queries: Sequence[StarQuery]):
            nonlocal completed_sessions
            # Derived at the first pause: single-query sessions never
            # draw a think time, and the derivation is a pure function
            # of its salt, so the draws are the same either way.
            think_rng = None
            for q_index, query in enumerate(queries):
                accounting = {}
                if controller is not None:
                    if q_index and think_time:
                        if think_rng is None:
                            think_rng = derive_rng(
                                params.seed, "think", session_id
                            )
                        pause = think_time_draw(think_rng, think_time)
                        if pause:
                            yield env.timeout(pause)
                    arrived = env.now
                    yield controller.request()
                    accounting = {
                        "arrived_at": arrived,
                        "admitted_at": env.now,
                        "queue_delay": env.now - arrived,
                    }
                start = env.now
                rng = shared_rng
                if rng is None:
                    rng = derive_rng(params.seed, rng_salt, session_id, q_index)
                executor = setup.executor(query, rng)
                yield executor.start().done
                if controller is not None:
                    controller.release()
                io = executor.io
                result.record(QueryMetrics(
                    name=query.name or str(query),
                    response_time=env.now - start,
                    subqueries=io.subqueries,
                    fact_io_ops=io.fact_ops,
                    fact_pages=io.fact_pages,
                    bitmap_io_ops=io.bitmap_ops,
                    bitmap_pages=io.bitmap_pages,
                    coordinator_node=executor.coordinator_id,
                    stream=session_id,
                    **accounting,
                ))
            completed_sessions += 1

        if workload is None:
            sessions = [queries_of(s) for s in range(session_count)]
            if session_count == 1 and len(sessions[0]) == 1:
                # One star query never touches the same extent twice —
                # uniform, clustered (each allocation unit's packed
                # bitmap extents and fact ranges are visited by exactly
                # one cluster subquery) or skewed — so a one-query run's
                # fresh pools can skip residency tracking: no hit is
                # possible and the pools still count every miss (see
                # BufferManager.assume_distinct_accesses for the
                # per-path argument).  Only the pools see the
                # difference; the subqueries run the same code either
                # way.  Runs of more queries keep full LRU behaviour.
                for manager in buffers:
                    manager.assume_distinct_accesses()
            for session_id, queries in enumerate(sessions):
                env.process(session_body(session_id, queries))
        else:
            arrivals = ArrivalProcess(
                kind=workload.arrival_process,
                rate_qps=workload.arrival_rate_qps,
                burst_size=workload.burst_size,
            )

            # Sessions are spawned as they arrive and counted, not kept:
            # nothing here grows with the session count.
            def source_body():
                pairs = arrivals.iter_arrival_slice(session_count, params.seed)
                for session_id, delay in pairs:
                    if delay:
                        yield env.timeout(delay)
                    env.process(
                        session_body(session_id, queries_of(session_id))
                    )

            env.process(source_body())
        env.run()
        if completed_sessions != session_count:
            raise RuntimeError("a session did not complete")
        self._collect_totals(result, env, disks, nodes, buffers)
        if controller is not None:
            result.peak_mpl = controller.peak_active
            result.peak_queue_length = controller.peak_waiting
            result.queued_arrivals = controller.queued_total
        return result


def _check_count(count, name: str) -> None:
    """Reject a ``bool`` or non-integer count, naming the value."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"{name} must be an integer, got {count!r}")
