"""Processing nodes: FIFO CPU servers with instruction accounting.

"CPU overhead is accounted for in all major query processing steps and
communication" (Section 5).  Every processing step submits its Table 4
instruction count; the node serves requests FIFO at ``cpu_mips`` million
instructions per second.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from repro.sim.engine import Environment, Event
from repro.sim.resources import FifoServer


class ProcessingNode(FifoServer):
    """One Shared Disk processing node's CPU."""

    __slots__ = ("node_id", "cpu_mips", "instructions", "_per_second")

    def __init__(self, env: Environment, node_id: int, cpu_mips: float):
        super().__init__(env, name=f"node{node_id}")
        if cpu_mips <= 0:
            raise ValueError("cpu_mips must be positive")
        self.node_id = node_id
        self.cpu_mips = cpu_mips
        self._per_second = cpu_mips * 1e6
        self.instructions = 0

    def compute(
        self,
        instructions: float,
        resume: Callable[[Any], Any] | None = None,
    ) -> Event | None:
        """Execute ``instructions`` on this node's CPU (FIFO-queued).

        Returns the completion event, or ``None`` when the caller passes
        a ``resume`` callable to be woken with instead.  The burst is
        pre-priced (a CPU's service time does not depend on the moment
        service starts) and non-negative, so this inlines the float
        fast path of :meth:`FifoServer.submit` without a closure or
        re-validation per request.
        """
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        self.instructions += int(instructions)
        duration = instructions / self._per_second
        env = self.env
        if resume is None:
            waiter = done = Event(env)
        else:
            waiter, done = resume, None
        if self._busy:
            self._queue.append((duration, waiter, None, env._now))
        else:
            self._busy = True
            env._seq = seq = env._seq + 1
            heappush(
                env._heap,
                (env._now + duration, seq, self._complete_cb,
                 (waiter, None, duration)),
            )
        return done
