"""Idealised contention-free network (Section 5).

"An idealized contention-free network model is employed with
communication delays proportional to message sizes, so as not to bias
simulation results due to a specific choice of a network topology."
Transfer delay is therefore a pure timeout; the CPU costs of sending and
receiving (Table 4: 1,000 instructions + 1 per byte on each side) are
charged by the caller on the respective nodes.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.config import CpuCosts, NetworkParameters
from repro.sim.engine import Environment, Event


class Network:
    """Contention-free interconnect between the processing nodes."""

    def __init__(self, env: Environment, params: NetworkParameters):
        self.env = env
        self.params = params
        self.messages_sent = 0
        self.bytes_sent = 0
        #: The hop completion, bound once: it wakes a resume callable.
        self._deliver = env._deliver

    def transfer_seconds(self, n_bytes: int) -> float:
        """Wire time for one message."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        return n_bytes * 8.0 / self.params.bandwidth_bits_per_s

    def transfer(
        self,
        n_bytes: int,
        seconds: float | None = None,
        resume: Callable[[Any], Any] | None = None,
    ) -> Event | None:
        """An event triggering after the wire delay of one message.

        ``seconds`` may carry the precomputed :meth:`transfer_seconds`
        of ``n_bytes`` — hot callers sending fixed-size control messages
        price the delay once instead of per message.  With a ``resume``
        callable the hop is one timed entry that wakes it (through the
        servers' completion tail) instead, and this returns ``None``.
        """
        self.messages_sent += 1
        self.bytes_sent += n_bytes
        if seconds is None:
            seconds = self.transfer_seconds(n_bytes)
        if resume is None:
            return self.env.timeout(seconds)
        self.env._schedule(seconds, self._deliver, resume)
        return None


def send_instructions(costs: CpuCosts, n_bytes: int) -> int:
    """Sender-side CPU cost of one message (Table 4)."""
    return costs.send_message_base + costs.per_message_byte * n_bytes


def receive_instructions(costs: CpuCosts, n_bytes: int) -> int:
    """Receiver-side CPU cost of one message (Table 4)."""
    return costs.receive_message_base + costs.per_message_byte * n_bytes
