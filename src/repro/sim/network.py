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
from repro.sim.engine import Environment


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
        self, n_bytes: int, seconds: float, resume: Callable[[Any], Any]
    ) -> None:
        """Send one message; ``resume`` wakes after its wire delay.

        ``seconds`` is the message's :meth:`transfer_seconds`, which hot
        callers sending fixed-size control messages price once instead
        of per message.  The hop is one timed entry that wakes
        ``resume`` through the servers' completion tail.
        """
        self.messages_sent += 1
        self.bytes_sent += n_bytes
        self.env._schedule(seconds, self._deliver, resume)


def send_instructions(costs: CpuCosts, n_bytes: int) -> int:
    """Sender-side CPU cost of one message (Table 4)."""
    return costs.send_message_base + costs.per_message_byte * n_bytes


def receive_instructions(costs: CpuCosts, n_bytes: int) -> int:
    """Receiver-side CPU cost of one message (Table 4)."""
    return costs.receive_message_base + costs.per_message_byte * n_bytes
