"""A parked process and a self-driven body wake in the same order.

Every server request (``ProcessingNode.compute``,
``Disk.read_validated``, ``Disk.read_batch``, ``Network.transfer``)
takes a resume callable, and the simulator hands it two kinds: the
query coordinator runs as a :class:`Process` whose body passes
``process._resume_cb`` to each request and parks by yielding ``None``;
each subquery is a self-driven generator that passes its own ``send``
and is never wrapped in a Process.  The goldens pin physics only, not
dispatch order, so this is the test that guards the two waiters: the
same random scripts of CPU bursts, disk reads, fused batches, network
hops and parallel joins run once per waiter on the production engine,
and must give the same ``(now, label, value)`` log, the same
``event_count``, the same clock and the same server statistics.

The quick tier (what CI runs on every PR)::

    HYPOTHESIS_MAX_EXAMPLES=20 PYTHONPATH=src python -m pytest \
        tests/properties/test_waiter_equivalence.py -q
"""

from __future__ import annotations

from hypothesis import given

from repro.sim.config import DiskParameters, NetworkParameters
from repro.sim.cpu import ProcessingNode
from repro.sim.disk import Disk
from repro.sim.engine import Environment
from repro.sim.network import Network

from tests.properties.strategies import STANDARD, request_scripts

_MESSAGE_BYTES = 128


def _simulate(script, self_driven: bool):
    """Run ``script`` (one step list per body); returns the log, the
    final ``event_count`` and clock, and every server's statistics."""
    env = Environment()
    nodes = [ProcessingNode(env, node_id, 50.0) for node_id in range(2)]
    disks = [Disk(env, DiskParameters(), disk_id) for disk_id in range(2)]
    network = Network(env, NetworkParameters())
    log = []

    def request(step, resume):
        kind = step[0]
        if kind == "cpu":
            return nodes[step[1]].compute(step[2], resume)
        if kind == "read":
            start, pages = step[2]
            return disks[step[1]].read_validated(
                [(0, pages)], pages, start, resume
            )
        if kind == "batch":
            requests = [
                ([(0, pages)], pages, start) for start, pages in step[2]
            ]
            return disks[step[1]].read_batch(requests, resume)
        return network.transfer(_MESSAGE_BYTES, step[1], resume)

    def finished(pid):
        log.append((env.now, "done", pid))

    def steps_body(pid, steps, resume):
        """The script's requests, each handed ``resume``; parks on
        every one by yielding ``None``."""
        for index, step in enumerate(steps):
            if step[0] == "join":
                # Countdown join, as the subqueries' parallel bitmap
                # reads: one resume per request, then one zero-delay hop.
                for item in step[1]:
                    assert request(item, resume) is None
                for _item in step[1]:
                    yield
                env._schedule(0.0, resume, None)
                yield
                value = None
            else:
                assert request(step, resume) is None
                value = yield
            log.append((env.now, f"{pid}.{index}.{step[0]}", value))

    def process_body(pid, steps, handle):
        # As the coordinator: the process's resume is read on the first
        # dispatch, once the Process exists.
        yield from steps_body(pid, steps, handle[0]._resume_cb)
        return pid

    def self_driven_body(pid, steps):
        resume = yield
        yield from steps_body(pid, steps, resume)
        # As the scheduler's subqueries end: a zero-delay completion
        # callback in place of the process's done event.
        env._schedule(0.0, finished, pid)
        resume = None
        yield

    for pid, steps in enumerate(script):
        if self_driven:
            body = self_driven_body(pid, steps)
            next(body)
            env._schedule(0.0, body.send, body.send)
        else:
            handle = []
            handle.append(env.process(process_body(pid, steps, handle)))
            handle[0].done.wait(finished)
    env.run()
    servers = [
        (server.busy_time, server.queue_time, server.request_count)
        for server in nodes + disks
    ]
    return log, env.event_count, env.now, servers


@STANDARD
@given(script=request_scripts)
def test_parked_process_matches_self_driven_body(script):
    expected = _simulate(script, self_driven=False)
    log, event_count, now, servers = _simulate(script, self_driven=True)
    assert log == expected[0]
    assert event_count == expected[1]
    assert now == expected[2]
    assert servers == expected[3]
