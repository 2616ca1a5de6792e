"""Arrival processes for open-system workloads.

The paper's experiments are single-user ("a new query starting as soon
as the previous one has terminated", Section 5) and its Section 7 defers
multi-user mode to future work.  This module supplies the missing
workload side of an *open* system: queries (or user sessions) arrive
according to a stochastic process instead of back-to-back, so the
simulator can trace throughput-vs-offered-load and response-time knee
curves for any fragmentation choice.

Three interarrival distributions are supported, all deterministic under
a fixed seed:

* ``poisson`` — exponential interarrival times (the classic open-system
  M/…/… arrival stream) at ``rate_qps`` arrivals per second,
* ``fixed``   — a deterministic arrival every ``1 / rate_qps`` seconds
  (zero burstiness, same offered load),
* ``bursty``  — batch-Poisson: batches of ``burst_size`` simultaneous
  arrivals whose batch gaps are exponential with mean
  ``burst_size / rate_qps``, so the *offered load* matches the other
  two processes while short-term congestion is much higher.

Determinism: every draw comes from a :class:`random.Random` seeded with
:func:`derive_rng` — a string-keyed derivation (``seed:salt:...``) that
hashes through SHA-512 inside ``random.seed`` and is therefore stable
across platforms, processes and scheduling-order refactors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Supported arrival-process kinds.
ARRIVAL_POISSON = "poisson"
ARRIVAL_FIXED = "fixed"
ARRIVAL_BURSTY = "bursty"

ARRIVAL_KINDS = (ARRIVAL_POISSON, ARRIVAL_FIXED, ARRIVAL_BURSTY)


def derive_rng(seed: int, *salt: object) -> random.Random:
    """A deterministically derived RNG for one labelled draw site.

    ``random.Random`` seeds strings through SHA-512 (seed version 2),
    so the derived stream depends only on ``seed`` and the salt values —
    never on hash randomisation or on how many draws other sites made
    before this one.
    """
    return random.Random(":".join(str(part) for part in (seed, *salt)))


@dataclass(frozen=True)
class ArrivalProcess:
    """A seed-driven interarrival distribution at a fixed offered load."""

    kind: str = ARRIVAL_POISSON
    #: Offered load: mean arrivals per second across the whole process.
    rate_qps: float = 1.0
    #: Arrivals per batch for the ``bursty`` kind (ignored otherwise).
    burst_size: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival process {self.kind!r}; "
                f"known: {list(ARRIVAL_KINDS)}"
            )
        if not (math.isfinite(self.rate_qps) and self.rate_qps > 0):
            raise ValueError(
                f"rate_qps must be finite and positive, got {self.rate_qps!r}"
            )
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")

    # -----------------------------------------------------------------
    def iter_interarrivals(self, count: int, seed: int):
        """Lazily yield ``count`` gaps between consecutive arrivals.

        The generator draws each gap on demand, so an open-system run
        over millions of sessions never materialises the gap list.  The
        draw sequence — and therefore every yielded value — is
        identical to :meth:`interarrivals` for the same arguments.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = derive_rng(seed, "arrivals", self.kind, self.rate_qps,
                         self.burst_size)
        if self.kind == ARRIVAL_FIXED:
            gap = 1.0 / self.rate_qps
            for _ in range(count):
                yield gap
            return
        if self.kind == ARRIVAL_POISSON:
            expo = rng.expovariate
            rate = self.rate_qps
            for _ in range(count):
                yield expo(rate)
            return
        # Bursty: whole batches share one arrival instant; gaps between
        # batches are exponential with mean burst_size / rate, so the
        # long-run offered load equals rate_qps.  One exponential draw
        # per *emitted* batch head, matching the eager implementation.
        batch_rate = self.rate_qps / self.burst_size
        emitted = 0
        while emitted < count:
            yield rng.expovariate(batch_rate)
            emitted += 1
            for _ in range(min(self.burst_size - 1, count - emitted)):
                yield 0.0
                emitted += 1

    def interarrivals(self, count: int, seed: int) -> list[float]:
        """``count`` gaps between consecutive arrivals (first gap is the
        delay of the first arrival after time zero)."""
        return list(self.iter_interarrivals(count, seed))

    def iter_arrival_slice(self, count: int, seed: int):
        """Lazily yield ``(session_id, gap)`` for sessions ``[0, count)``.

        The arrival source of an open-system run: session ``i`` arrives
        ``gap`` seconds after session ``i - 1`` (the first gap is the
        delay after time zero), exactly :meth:`iter_interarrivals`
        numbered by session.  The name is kept because
        ``benchmarks/perf/trace.py`` wraps this method by name; the next
        benchmark version may rename it.
        """
        return enumerate(self.iter_interarrivals(count, seed))

    def arrival_times(self, count: int, seed: int) -> list[float]:
        """Absolute arrival instants (cumulative interarrival sums)."""
        times = []
        now = 0.0
        for gap in self.interarrivals(count, seed):
            now += gap
            times.append(now)
        return times

    @property
    def mean_interarrival_s(self) -> float:
        return 1.0 / self.rate_qps


def think_time_draw(rng: random.Random, mean_s: float) -> float:
    """One exponential think time with the given mean (0 mean = none).

    Used between consecutive queries of one session in closed/open
    hybrid mode: the session "reads the previous answer" before issuing
    the next query.
    """
    if mean_s < 0:
        raise ValueError("mean think time must be non-negative")
    if mean_s == 0:
        return 0.0
    return rng.expovariate(1.0 / mean_s)
