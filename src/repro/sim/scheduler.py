"""Coordinator-based parallel query execution (Section 5).

"New queries are first assigned to a randomly selected coordinator node
...  The coordinator creates a task list of all subqueries to be
performed, each comprising one fact fragment and its associated bitmap
fragments ...  The list is sorted in the order in which the fragments
were allocated to disks ...  The coordinator assigns subqueries from the
task list to available processors in a round-robin manner, where each
node receives a maximum of ``t`` concurrent tasks ...  We do, however,
count coordination as one task so that the coordinator node will only
process ``t - 1`` subqueries at a time."

Each subquery performs the bitmap phase (optionally with parallel I/O
over the staggered bitmap fragments), then reads and processes its fact
granules, and returns a partial aggregate to the coordinator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.sim.buffer import BufferManager
from repro.sim.config import SimulationParameters
from repro.sim.cpu import ProcessingNode
from repro.sim.database import SubqueryWork
from repro.sim.engine import Environment, Process
from repro.sim.network import Network, receive_instructions, send_instructions


@dataclass(slots=True)
class _IOAccumulator:
    """Per-query I/O counters."""

    fact_ops: int = 0
    fact_pages: int = 0
    bitmap_ops: int = 0
    bitmap_pages: int = 0
    subqueries: int = 0


class QueryExecutor:
    """Executes one routed query on the simulated system.

    ``work`` is the query's task list: the
    :class:`~repro.sim.database.SubqueryWork` units of its plan in
    allocation order, as a lazy expansion or a kept tuple.
    ``disk_reads`` and ``disk_batches`` are every disk's bound
    ``read_validated`` and ``read_batch``, bound once per run and shared
    by all of its queries.
    """

    __slots__ = (
        "env", "work", "nodes", "network", "buffers",
        "params", "io", "_small", "_small_delay", "_recv_cost",
        "_finish_cost", "_bitmap_page_cost", "_row_cost", "_read_page_cost",
        "_parallel_bitmap_io", "coordinator_id", "_coordinator",
        "_slots_free", "_free_nodes", "_active", "_resume", "_wake",
        "_disk_read", "_disk_batch",
    )

    def __init__(
        self,
        env: Environment,
        work: Iterable[SubqueryWork],
        nodes: list[ProcessingNode],
        disk_reads: list[Callable[..., None]],
        disk_batches: list[Callable[..., None]],
        network: Network,
        buffers: list[BufferManager],
        rng: random.Random,
        params: SimulationParameters,
    ):
        self.env = env
        self.work = work
        self.nodes = nodes
        self.network = network
        self.buffers = buffers
        # Scheduling knobs come from the *simulator's* parameters, not
        # the database's: a cached SimulatedDatabase may be shared by
        # run points that differ in node count, task limit or seed.
        self.params = params
        self.io = _IOAccumulator()
        costs = params.cpu_costs
        small = params.network.small_message_bytes
        self._small = small
        self._small_delay = network.transfer_seconds(small)
        self._recv_cost = receive_instructions(costs, small)
        self._finish_cost = (
            costs.terminate_subquery + send_instructions(costs, small)
        )
        # Per-subquery constants, hoisted off the hot generators.
        self._bitmap_page_cost = costs.process_bitmap_page
        self._row_cost = costs.extract_table_row + costs.aggregate_table_row
        self._read_page_cost = costs.read_page
        self._parallel_bitmap_io = params.parallel_bitmap_io

        self.coordinator_id = rng.randrange(len(nodes))
        self._coordinator = nodes[self.coordinator_id]
        self._slots_free: list[int] = []
        #: Nodes with at least one free slot; lets the coordinator skip
        #: the round-robin scan entirely while every node is saturated.
        self._free_nodes = 0
        self._active = 0
        #: The coordinator process's resume, set by :meth:`start`; held
        #: in ``_wake`` while the coordinator waits for a subquery.
        self._resume: Callable[[object], None] | None = None
        self._wake: Callable[[object], None] | None = None
        #: The subquery loops index these lists instead of re-binding a
        #: disk method per read; parallel bitmap reads hitting the same
        #: disk fuse into one read_batch with one completion event.
        self._disk_read = disk_reads
        self._disk_batch = disk_batches

    # -- coordinator ---------------------------------------------------------

    def start(self) -> Process:
        """Start the coordinator process; its ``done`` triggers when the
        query has finished."""
        process = self.env.process(self.body())
        self._resume = process._resume_cb
        return process

    def body(self):
        """The coordinator process: schedule subqueries, gather results.

        Run it through :meth:`start`: it hands its process's resume to
        each of its CPU bursts and parks (yields ``None``) on them, as a
        subquery does.
        """
        resume = self._resume
        costs = self.params.cpu_costs
        small = self.params.network.small_message_bytes
        t = self.params.hardware.subqueries_per_node
        n_nodes = len(self.nodes)

        self._coordinator.compute(costs.initiate_query, resume)
        yield

        # Coordination occupies one task slot on the coordinator node.
        self._slots_free = [t] * n_nodes
        self._slots_free[self.coordinator_id] = max(t - 1, 1 if n_nodes == 1 else 0)
        self._free_nodes = sum(1 for slots in self._slots_free if slots > 0)

        work_iter = iter(self.work)
        next_work = next(work_iter, None)
        cursor = 0
        send_cost = costs.initiate_subquery + send_instructions(costs, small)

        global_cap = self.params.max_concurrent_subqueries
        while next_work is not None or self._active > 0:
            # Assign to available nodes, round robin from the cursor.
            while next_work is not None:
                if global_cap is not None and self._active >= global_cap:
                    break
                if not self._free_nodes:
                    break
                node_id = self._find_free(cursor, n_nodes)
                cursor = (node_id + 1) % n_nodes
                slots_free = self._slots_free
                slots_free[node_id] -= 1
                if not slots_free[node_id]:
                    self._free_nodes -= 1
                self._active += 1
                self._coordinator.compute(send_cost, resume)
                yield
                self._launch(node_id, next_work)
                next_work = next(work_iter, None)
            if next_work is None and self._active == 0:
                break
            # Park until a subquery finishes (see _on_done).
            self._wake = resume
            yield

        self._coordinator.compute(costs.terminate_query, resume)
        yield

    def _find_free(self, cursor: int, n_nodes: int) -> int:
        """First node with a free slot, round robin from ``cursor``.

        Only called while ``_free_nodes`` is positive, so a free node
        always exists.
        """
        slots_free = self._slots_free
        for i in range(n_nodes):
            node_id = (cursor + i) % n_nodes
            if slots_free[node_id] > 0:
                return node_id
        raise AssertionError("no free node despite _free_nodes > 0")

    def _launch(self, node_id: int, work: SubqueryWork) -> None:
        """Start one subquery: a self-driven generator, primed to
        receive its own ``send`` as its resume callback on its first
        dispatch."""
        self.io.subqueries += 1
        body = self._subquery_body(node_id, work)
        next(body)
        self.env._schedule(0.0, body.send, body.send)

    def _on_done(self, node_id: int) -> None:
        slots_free = self._slots_free
        slots_free[node_id] += 1
        if slots_free[node_id] == 1:
            self._free_nodes += 1
        self._active -= 1
        wake = self._wake
        if wake is not None:
            self._wake = None
            self.env._schedule(0.0, wake, None)

    # -- subquery ----------------------------------------------------------------

    def _subquery_body(self, node_id: int, work: SubqueryWork):
        """One subquery, start to finish (Section 4.3 steps 3-4).

        The bitmap and fact phases are inlined into this one generator
        (instead of ``yield from`` sub-generators) so each subquery
        costs a single generator frame on the event loop's hot path.
        The body drives itself: it receives its own ``send`` as
        ``resume`` on its first dispatch (see :meth:`_launch`), hands
        ``resume`` to every request it waits on and yields nothing —
        no Event, no Process.  Every read is probed against the node's
        buffer pool first; a counting-only pool answers those probes
        itself (:meth:`~repro.sim.buffer.BufferPool.access_extents`), so
        this body is the same whatever the pool tracks.
        """
        env = self.env
        small = self._small
        small_delay = self._small_delay
        node = self.nodes[node_id]
        buffer = self.buffers[node_id]
        io = self.io
        disk_read = self._disk_read
        transfer = self.network.transfer
        compute = node.compute
        resume = yield

        # Assignment message: wire delay, then receive cost on the node.
        transfer(small, small_delay, resume)
        yield
        compute(self._recv_cost, resume)
        yield

        # Step 4a: read and process the relevant bitmap fragments —
        # parallel over disks if configured.  Parallel bitmap I/O probes
        # the pool in bulk (:meth:`~repro.sim.buffer.BufferPool.probe_many`)
        # before the missed groups are submitted to their disks —
        # exactly what the sequence of probes would produce, since
        # nothing yields between them.  Sequential bitmap I/O must
        # instead probe each group only after the previous read
        # completed: concurrent queries mutate the pool while this one
        # waits.  Resident fragments still need CPU evaluation, so the
        # compute burst covers every processed page, read or buffered.
        bitmap_disks = work.bitmap_disks
        if bitmap_disks:
            bitmap_starts = work.bitmap_starts
            extents = work.bitmap_extents
            pages_per_read = work.bitmap_pages_per_read
            pool = buffer.bitmap
            pages_processed = pages_per_read * len(bitmap_disks)
            if self._parallel_bitmap_io:
                # Group the misses per disk (insertion order = first
                # occurrence); repeats fuse into one batch request with
                # one completion.  Per-disk submit order is preserved,
                # so the FIFO service order and every priced duration
                # are identical to the unfused reads.
                probed = pool.probe_many(
                    bitmap_disks, bitmap_starts, extents, pages_per_read
                )
                groups: dict[int, list] = {}
                read_ops = 0
                read_total = 0
                for disk_id, base, (to_read, read_pages) in zip(
                    bitmap_disks, bitmap_starts, probed
                ):
                    if not to_read:
                        continue
                    read_ops += len(to_read)
                    read_total += read_pages
                    request = (to_read, read_pages, base)
                    group = groups.get(disk_id)
                    if group is None:
                        groups[disk_id] = [request]
                    else:
                        group.append(request)
                if groups:
                    io.bitmap_ops += read_ops
                    io.bitmap_pages += read_total
                    disk_batch = self._disk_batch
                    for disk_id, requests in groups.items():
                        if len(requests) == 1:
                            to_read, read_pages, base = requests[0]
                            disk_read[disk_id](
                                to_read, read_pages, base, resume
                            )
                        else:
                            disk_batch[disk_id](requests, resume)
                    # Countdown join: one resume per completed group,
                    # then the join's own zero-delay hop (as a joined
                    # AllOf's succeed would schedule it).
                    for _group in groups:
                        yield
                    env._schedule(0.0, resume, None)
                    yield
            else:
                access_extents = pool.access_extents
                for disk_id, base in zip(bitmap_disks, bitmap_starts):
                    to_read, read_pages = access_extents(
                        disk_id, extents, base, pages_per_read
                    )
                    if not to_read:
                        continue
                    io.bitmap_ops += len(to_read)
                    io.bitmap_pages += read_pages
                    disk_read[disk_id](to_read, read_pages, base, resume)
                    yield
            if pages_processed:
                compute(self._bitmap_page_cost * pages_processed, resume)
                yield

        # Step 4b: read fact granules, extract and aggregate hit rows.
        row_instructions = self._row_cost * work.relevant_rows
        batches = work.fact_batches
        if batches:
            rows_per_batch = row_instructions / len(batches)
            fact_disk = work.fact_disk
            base = work.fact_start
            access_extents = buffer.fact.access_extents
            read_validated = disk_read[fact_disk]
            read_page = self._read_page_cost
            # The query's counters are read only after all of its
            # subqueries finished, so they take one sum per subquery.
            read_ops = 0
            read_total = 0
            for batch, pages_in_batch in batches:
                to_read, read_pages = access_extents(
                    fact_disk, batch, base, pages_in_batch
                )
                if to_read:
                    read_ops += len(to_read)
                    read_total += read_pages
                    read_validated(to_read, read_pages, base, resume)
                    yield
                compute(read_page * pages_in_batch + rows_per_batch, resume)
                yield
            io.fact_ops += read_ops
            io.fact_pages += read_total
        elif row_instructions:
            compute(row_instructions, resume)
            yield

        # Return the partial aggregate to the coordinator.
        compute(self._finish_cost, resume)
        yield
        transfer(small, small_delay, resume)
        yield
        self._coordinator.compute(self._recv_cost, resume)
        yield
        env._schedule(0.0, self._on_done, node_id)
        # Park for good.  Nothing may still reference this generator's
        # own send from its frame: the generator would then be a
        # reference cycle, left for the cyclic collector instead of
        # being freed as soon as its last completion returns.
        resume = None
        yield
