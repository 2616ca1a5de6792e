"""Resume-form server requests are order-equivalent to the Event form.

``ProcessingNode.compute``, ``Disk.read_validated``, ``Disk.read_batch``
and ``Network.transfer`` take an optional resume callable: a
self-driven generator (the scheduler's subqueries) hands them its own
``send`` instead of yielding the returned :class:`Event` to a
:class:`Process`.  The goldens pin physics only, not dispatch order, so
this is the test that guards the resume path: the same random scripts
of CPU bursts, disk reads, fused batches, network hops and parallel
joins run once per form on the production engine, and must give the
same ``(now, label, value)`` log and the same ``event_count``.

The quick tier (what CI runs on every PR)::

    HYPOTHESIS_MAX_EXAMPLES=20 PYTHONPATH=src python -m pytest \
        tests/properties/test_resume_equivalence.py -q
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


def _simulate(script, resume_form: bool):
    """Run ``script`` (one step list per process); returns the log, the
    final ``event_count`` and clock, and every server's statistics."""
    env = Environment()
    nodes = [ProcessingNode(env, node_id, 50.0) for node_id in range(2)]
    disks = [Disk(env, DiskParameters(), disk_id) for disk_id in range(2)]
    network = Network(env, NetworkParameters())
    log = []

    def request(step, resume=None):
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

    def event_body(pid, steps):
        for index, step in enumerate(steps):
            if step[0] == "join":
                yield env.all_of([request(item) for item in step[1]])
                value = None
            else:
                value = yield request(step)
            log.append((env.now, f"{pid}.{index}.{step[0]}", value))
        return pid

    def resume_body(pid, steps):
        resume = yield
        for index, step in enumerate(steps):
            if step[0] == "join":
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
        # As the scheduler's subqueries end: a zero-delay completion
        # callback in place of the process's done event.
        env._schedule(0.0, finished, pid)
        resume = None
        yield

    for pid, steps in enumerate(script):
        if resume_form:
            body = resume_body(pid, steps)
            next(body)
            env._schedule(0.0, body.send, body.send)
        else:
            env.process(event_body(pid, steps)).done.wait(finished)
    env.run()
    servers = [
        (server.busy_time, server.queue_time, server.request_count)
        for server in nodes + disks
    ]
    return log, env.event_count, env.now, servers


@STANDARD
@given(script=request_scripts)
def test_resume_form_matches_event_form(script):
    expected = _simulate(script, resume_form=False)
    log, event_count, now, servers = _simulate(script, resume_form=True)
    assert log == expected[0]
    assert event_count == expected[1]
    assert now == expected[2]
    assert servers == expected[3]
