"""Per-layer host-time tracing, installed on the simulator from outside.

:func:`install` replaces each layer entry point (a method on a class,
or a module-level function) with a wrapper that pushes a frame onto one
stack, calls the original, and pops the frame.  A layer's self time is
the elapsed time of its frames minus the time of their child frames, so
the self times of all layers sum exactly (integer nanoseconds) to the
elapsed time of the root frames.  Time and calls are also summed per
caller-layer -> callee-layer edge.  Nothing is logged per call: a traced
``warehouse_open`` rep makes millions of calls.

The engine binds some entry points as callbacks when an object is built
(``Process._resume``, ``FifoServer._complete``), so install the wrappers
before the simulator is constructed.  :func:`uninstall` puts back the
identical original attributes.

The wrappers only observe: they pass every argument and return value
through unchanged, and the benchmark checks that a traced run's physics
equal an untraced run's.
"""

from __future__ import annotations

import importlib
import sys
import time

#: Entry kinds: a plain call, or a call returning an iterator whose
#: every ``next()`` is timed (the creating call itself is not).
CALL = "call"
ITER = "iter"

#: Caller name of the outermost frames.
HOST = "host"

#: The simulator's layer entry points: (layer, module, owner, attribute,
#: kind).  ``owner`` None means a module-level function; it is replaced
#: in every loaded module that imported it by name.
SIMULATOR_ENTRIES = (
    ("engine", "repro.sim.engine", "Environment", "run", CALL),
    ("engine", "repro.sim.engine", "Environment", "run_until_event", CALL),
    ("engine", "repro.sim.engine", "Environment", "timeout", CALL),
    ("engine", "repro.sim.engine", "Environment", "timeout_at", CALL),
    ("engine", "repro.sim.engine", "Environment", "process", CALL),
    ("engine", "repro.sim.engine", "Environment", "all_of", CALL),
    ("engine", "repro.sim.engine", "Environment", "event", CALL),
    ("scheduler", "repro.sim.engine", "Process", "_resume", CALL),
    ("disk", "repro.sim.disk", "Disk", "read_validated", CALL),
    ("disk", "repro.sim.disk", "Disk", "read_batch", CALL),
    ("disk", "repro.sim.disk", "Disk", "_price_batch", CALL),
    ("disk", "repro.sim.disk", "Disk", "_complete", CALL),
    ("disk", "repro.sim.disk", "Disk", "_service", CALL),
    ("disk", "repro.sim.disk", "Disk", "_service_vector", CALL),
    ("cpu", "repro.sim.cpu", "ProcessingNode", "compute", CALL),
    ("cpu", "repro.sim.resources", "FifoServer", "_complete", CALL),
    ("cpu", "repro.sim.resources", "FifoServer", "submit", CALL),
    ("network", "repro.sim.network", "Network", "transfer", CALL),
    ("buffer", "repro.sim.buffer", "BufferPool", "probe_many", CALL),
    ("buffer", "repro.sim.buffer", "BufferPool", "access_extents", CALL),
    ("buffer", "repro.sim.buffer", "BufferPool", "access", CALL),
    ("database", "repro.sim.database", "SimulatedDatabase", "plan", CALL),
    ("database", "repro.sim.database", "SimulatedDatabase",
     "iter_subquery_work", ITER),
    ("mdhf", "repro.mdhf.routing", None, "plan_query", CALL),
    ("mdhf", "repro.mdhf.query", "QueryTemplate", "instantiate", CALL),
    ("admission", "repro.sim.admission", "AdmissionController", "request",
     CALL),
    ("admission", "repro.sim.admission", "AdmissionController", "release",
     CALL),
    ("arrivals", "repro.workload.arrivals", "ArrivalProcess",
     "iter_arrival_slice", ITER),
    ("metrics", "repro.sim.metrics", "SimulationResult", "record", CALL),
    ("runner", "repro.scenarios.runner", None, "execute_run", CALL),
)


class Tracer:
    """Self time, calls and caller->callee edges of the traced layers."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        #: layer -> self time in clock units.
        self.self_time: dict[str, int] = {}
        #: (caller layer, callee layer) -> [calls, elapsed clock units].
        self.edges: dict[tuple[str, str], list[int]] = {}
        #: "Owner.attribute" -> [calls, items]; items counts the values
        #: an ITER entry yielded.
        self.entries: dict[str, list[int]] = {}
        #: "Owner.attribute" -> layer.
        self.layer_of: dict[str, str] = {}
        #: Counters read from every finished simulation.
        self.observed = {
            "events": 0, "disk_requests": 0, "buffer_hits": 0,
            "buffer_misses": 0,
        }
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- frames ------------------------------------------------------------

    def _frames(self, layer: str):
        """The enter/leave pair for one layer (closures: hot path)."""
        stack = self._stack
        clock = self.clock
        self_time = self.self_time
        edges = self.edges
        self_time.setdefault(layer, 0)

        def enter() -> list:
            frame = [0, clock(), layer]
            stack.append(frame)
            return frame

        def leave(frame: list) -> None:
            elapsed = clock() - frame[1]
            stack.pop()
            self_time[layer] += elapsed - frame[0]
            if stack:
                parent = stack[-1]
                parent[0] += elapsed
                key = (parent[2], layer)
            else:
                key = (HOST, layer)
            edge = edges.get(key)
            if edge is None:
                edges[key] = [1, elapsed]
            else:
                edge[0] += 1
                edge[1] += elapsed

        return enter, leave

    def wrap(self, func, layer: str, name: str, kind: str = CALL):
        """A wrapper timing every call of ``func`` as ``layer``."""
        enter, leave = self._frames(layer)
        counts = self.entries.setdefault(name, [0, 0])
        self.layer_of[name] = layer
        if kind == ITER:
            def traced_iter(*args, **kwargs):
                iterator = iter(func(*args, **kwargs))
                while True:
                    counts[0] += 1
                    frame = enter()
                    try:
                        value = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    counts[1] += 1
                    yield value

            return traced_iter

        def traced(*args, **kwargs):
            counts[0] += 1
            frame = enter()
            try:
                return func(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; a module owner's function is replaced
        in every loaded module that holds the same object."""
        original = owner.__dict__[attribute]
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets = [
                module for module in list(sys.modules.values())
                if getattr(module, "__dict__", {}).get(attribute) is original
            ]
        for target in targets:
            self._patches.append((target, attribute, original))
            setattr(target, attribute, replacement)

    def restore(self) -> None:
        for target, attribute, original in reversed(self._patches):
            setattr(target, attribute, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def calls(self, layer: str) -> int:
        return sum(
            counts[0] for name, counts in self.entries.items()
            if self.layer_of[name] == layer
        )

    def root_time(self) -> int:
        """Elapsed clock units of the outermost frames."""
        return sum(
            edge[1] for (caller, _callee), edge in self.edges.items()
            if caller == HOST
        )


def _observe_totals(tracer: Tracer, original: staticmethod) -> staticmethod:
    """Wrap ``ParallelWarehouseSimulator._collect_totals`` to read the
    event, disk-request and buffer counters every run mode folds there
    (the open-system metrics dict carries no buffer counters)."""
    collect = original.__func__
    observed = tracer.observed

    def collect_and_observe(result, env, disks, nodes, buffers):
        collect(result, env, disks, nodes, buffers)
        observed["events"] += env.event_count
        observed["disk_requests"] += sum(disk.request_count for disk in disks)
        observed["buffer_hits"] += result.buffer_hits
        observed["buffer_misses"] += result.buffer_misses

    return staticmethod(collect_and_observe)


def install(entries=None, clock=time.perf_counter_ns) -> Tracer:
    """Wrap every entry point; returns the :class:`Tracer` collecting.

    ``entries`` is a sequence of ``(layer, owner, attribute, kind)`` with
    ``owner`` a class or module object; ``None`` installs
    :data:`SIMULATOR_ENTRIES` plus the simulator's counter observer.
    """
    tracer = Tracer(clock)
    if entries is None:
        entries = [
            (layer, _owner(module, owner), attribute, kind)
            for layer, module, owner, attribute, kind in SIMULATOR_ENTRIES
        ]
        simulator = _owner("repro.sim.simulator", "ParallelWarehouseSimulator")
        tracer.patch(
            simulator, "_collect_totals",
            _observe_totals(tracer, simulator.__dict__["_collect_totals"]),
        )
    for layer, owner, attribute, kind in entries:
        name = f"{getattr(owner, '__name__', owner)}.{attribute}"
        func = owner.__dict__[attribute]
        tracer.patch(owner, attribute, tracer.wrap(func, layer, name, kind))
    return tracer


def uninstall(tracer: Tracer) -> None:
    """Put back every original attribute :func:`install` replaced."""
    tracer.restore()


def _owner(module: str, owner: str | None):
    imported = importlib.import_module(module)
    return imported if owner is None else getattr(imported, owner)
