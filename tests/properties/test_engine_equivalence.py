"""Stateful equivalence: production engine vs the naive reference.

A Hypothesis :class:`RuleBasedStateMachine` drives
:class:`repro.sim.engine.Environment` (ready-deque merge, inline
succeed, fused tails) and :class:`repro.sim.reference.ReferenceEnvironment`
(one sorted list, nothing else) through *identical* random operation
sequences — timeouts with same-instant ties and zero-delay chains,
absolute-time ``timeout_at`` schedules (including offsets one ulp
either side of 1.0 and huge far-future values),
``AllOf`` joins over overlapping / pre-triggered / empty child sets,
processes that succeed events mid-dispatch, ``run(until)`` horizons
(including horizons in the past), buffer probes through a shared-shape
:class:`BufferPool` and admission arrivals through an
:class:`AdmissionController` per engine — and asserts the observable
timelines never diverge:

* the interleaved log of every observer callback (dispatch order and
  the values delivered),
* ``now`` after every rule (bit-identical floats),
* ``event_count`` after every rule,
* per-event ``triggered``/``value`` state, and
* process return values (via ``done`` observers).

This harness is the safety net that replaces byte-identical goldens
when the engine's hot loop is rebuilt (ROADMAP: fingerprint v2 + batch
advancement): any refactor that reorders, drops or double-counts a
dispatch fails here long before a golden regeneration could hide it.

Run the deep tier locally (200 examples, the nightly configuration)::

    PYTHONPATH=src python -m pytest tests/properties/test_engine_equivalence.py -q

and the quick tier (what tier-1 CI runs)::

    HYPOTHESIS_MAX_EXAMPLES=20 PYTHONPATH=src python -m pytest \
        tests/properties/test_engine_equivalence.py -q
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim.admission import AdmissionController
from repro.sim.buffer import BufferPool
from repro.sim.engine import Environment
from repro.sim.reference import ReferenceEnvironment

from tests.properties.strategies import (
    QUICK,
    STATE_MACHINE,
    delays,
    event_values,
    horizon_offsets,
    process_recipes,
)

#: Small pool so evictions and re-hits happen constantly; shared shape
#: between both engines' probe streams.
_POOL_PAGES = 4
_MAX_MPL = 2


def _child_body(env, child_delays):
    """A leaf process: a chain of timeouts, returns its finish time."""

    def body():
        for delay in child_delays:
            yield env.timeout(delay, delay)
        return env.now

    return body()


class EngineEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.prod = Environment()
        self.ref = ReferenceEnvironment()
        self.prod_log: list = []
        self.ref_log: list = []
        #: All (prod_event, ref_event) pairs ever created, in creation
        #: order; recipes refer to them by index.
        self.pairs: list = []
        #: Indices of plain events (safe to succeed externally — never
        #: succeeded by a timeout, a join or a finishing process).
        self.plain: list[int] = []
        self.prod_pool = BufferPool(_POOL_PAGES, name="prod")
        self.ref_pool = BufferPool(_POOL_PAGES, name="ref")
        self.prod_adm = AdmissionController(self.prod, max_mpl=_MAX_MPL)
        self.ref_adm = AdmissionController(self.ref, max_mpl=_MAX_MPL)
        self.next_pid = 0

    # -- bookkeeping --------------------------------------------------

    def _register(self, prod_event, ref_event, observed: bool) -> int:
        index = len(self.pairs)
        self.pairs.append((prod_event, ref_event))
        if observed:
            prod_log = self.prod_log
            ref_log = self.ref_log
            prod_env = self.prod
            ref_env = self.ref
            prod_event.wait(
                lambda value: prod_log.append(
                    ("observed", index, value, prod_env.now)
                )
            )
            ref_event.wait(
                lambda value: ref_log.append(
                    ("observed", index, value, ref_env.now)
                )
            )
        return index

    def _resolve(self, recipe):
        """Pin a recipe's event references to concrete pair indices.

        Resolution happens once, at spawn time, so both engines' bodies
        interpret byte-identical step lists.
        """
        n_pairs = len(self.pairs)
        n_plain = len(self.plain)
        steps = []
        for op in recipe:
            kind = op[0]
            if kind == "wait":
                if n_pairs:
                    steps.append(("wait", op[1] % n_pairs))
            elif kind == "succeed":
                if n_plain:
                    steps.append(("succeed", self.plain[op[1] % n_plain], op[2]))
            elif kind == "join":
                indices = [i % n_pairs for i in op[1]] if n_pairs else []
                steps.append(("join", indices))
            else:
                steps.append(op)
        return steps

    def _body(self, side: int, pid: int, steps):
        env = (self.prod, self.ref)[side]
        log = (self.prod_log, self.ref_log)[side]
        pool = (self.prod_pool, self.ref_pool)[side]
        admission = (self.prod_adm, self.ref_adm)[side]
        pairs = self.pairs

        def body():
            results = []
            for op in steps:
                kind = op[0]
                if kind == "timeout":
                    value = yield env.timeout(op[1], op[2])
                    results.append(value)
                elif kind == "timeout_at":
                    value = yield env.timeout_at(env.now + op[1], op[2])
                    results.append(value)
                elif kind == "wait":
                    value = yield pairs[op[1]][side]
                    results.append(value)
                elif kind == "succeed":
                    event = pairs[op[1]][side]
                    if event.triggered:
                        log.append(("mid-succeed-skipped", pid, op[1]))
                    else:
                        event.succeed(op[2])
                        log.append(("mid-succeed", pid, op[1], env.now))
                elif kind == "join":
                    children = [pairs[i][side] for i in op[1]]
                    value = yield env.all_of(children)
                    results.append(value)
                elif kind == "buffer":
                    hit = pool.access(op[1], op[2], op[3])
                    log.append(("buffer", pid, op[1], op[2], hit))
                    yield env.timeout(0.25 if hit else 1.0)
                elif kind == "admission":
                    yield admission.request()
                    log.append(("admitted", pid, env.now))
                    yield env.timeout(op[1])
                    admission.release()
                    log.append(("released", pid, env.now))
                elif kind == "spawn":
                    child = env.process(_child_body(env, op[1]))
                    if op[2]:
                        value = yield child.done
                        results.append(value)
            log.append(("returning", pid, env.now))
            return (pid, tuple(results))

        return body()

    # -- rules: build identical timelines on both engines -------------

    @rule(observed=st.booleans())
    def create_event(self, observed):
        prod_event = self.prod.event()
        ref_event = self.ref.event()
        index = self._register(prod_event, ref_event, observed)
        self.plain.append(index)

    @rule(delay=delays, value=event_values, observed=st.booleans())
    def add_timeout(self, delay, value, observed):
        self._register(
            self.prod.timeout(delay, value),
            self.ref.timeout(delay, value),
            observed,
        )

    @rule(offset=delays, value=event_values, observed=st.booleans())
    def add_timeout_at(self, offset, value, observed):
        """Absolute-time scheduling; ``offset`` may be 0 (fire *now*).

        The ``delays`` strategy's one-ulp offsets around 1.0 and its
        huge far-future offsets pin exact ``(time, seq)`` order at the
        float extremes; the reference engine sorts one flat list.
        """
        when = self.ref.now + offset
        self._register(
            self.prod.timeout_at(when, value),
            self.ref.timeout_at(when, value),
            observed,
        )

    @precondition(lambda self: self.plain)
    @rule(pick=st.integers(min_value=0, max_value=255), value=event_values)
    def succeed_event(self, pick, value):
        """Succeed a plain event outside dispatch.

        Double-succeed parity rides along: when the pick is already
        triggered, both engines must raise the same RuntimeError.
        """
        index = self.plain[pick % len(self.plain)]
        prod_event, ref_event = self.pairs[index]
        outcomes = []
        for event in (prod_event, ref_event):
            try:
                event.succeed(value)
                outcomes.append("ok")
            except RuntimeError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]

    @rule(
        picks=st.lists(st.integers(min_value=0, max_value=255), max_size=4),
        observed=st.booleans(),
    )
    def join_events(self, picks, observed):
        """AllOf over an arbitrary (possibly empty/duplicated) subset."""
        n_pairs = len(self.pairs)
        indices = [i % n_pairs for i in picks] if n_pairs else []
        prod_children = [self.pairs[i][0] for i in indices]
        ref_children = [self.pairs[i][1] for i in indices]
        self._register(
            self.prod.all_of(prod_children),
            self.ref.all_of(ref_children),
            observed,
        )

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=255))
    def observe_again(self, pick):
        """Attach a late observer: multi-waiter lists, and `wait` on an
        already-triggered event outside dispatch."""
        index = pick % len(self.pairs)
        prod_event, ref_event = self.pairs[index]
        prod_log = self.prod_log
        ref_log = self.ref_log
        prod_event.wait(
            lambda value: prod_log.append(("late", index, value))
        )
        ref_event.wait(
            lambda value: ref_log.append(("late", index, value))
        )

    @rule(recipe=process_recipes)
    def spawn_process(self, recipe):
        steps = self._resolve(recipe)
        pid = self.next_pid
        self.next_pid += 1
        prod_process = self.prod.process(self._body(0, pid, steps))
        ref_process = self.ref.process(self._body(1, pid, steps))
        # The done pair joins the event pool: later rules can wait on,
        # join over, or observe a process's return value.
        self._register(prod_process.done, ref_process.done, observed=True)

    # -- rules: advance both timelines --------------------------------

    @rule()
    def run_all(self):
        assert self.prod.run() == self.ref.run()

    @rule(offset=horizon_offsets)
    def run_horizon(self, offset):
        until = self.ref.now + offset
        assert self.prod.run(until=until) == self.ref.run(until=until)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(min_value=0, max_value=255))
    def run_until_pair(self, pick):
        index = pick % len(self.pairs)
        prod_event, ref_event = self.pairs[index]
        outcomes = []
        for env, event in (
            (self.prod, prod_event),
            (self.ref, ref_event),
        ):
            try:
                outcomes.append(("value", env.run_until_event(event)))
            except RuntimeError as error:
                outcomes.append(("raised", str(error)))
        assert outcomes[0] == outcomes[1]

    # -- the contract --------------------------------------------------

    @invariant()
    def timelines_identical(self):
        assert self.prod_log == self.ref_log
        assert self.prod.now == self.ref.now
        assert self.prod.event_count == self.ref.event_count
        for index, (prod_event, ref_event) in enumerate(self.pairs):
            assert prod_event.triggered == ref_event.triggered, index
            if prod_event.triggered:
                assert prod_event.value == ref_event.value, index
        assert (
            self.prod_adm.active,
            self.prod_adm.waiting,
            self.prod_adm.admitted_total,
            self.prod_adm.queued_total,
            self.prod_adm.peak_active,
            self.prod_adm.peak_waiting,
        ) == (
            self.ref_adm.active,
            self.ref_adm.waiting,
            self.ref_adm.admitted_total,
            self.ref_adm.queued_total,
            self.ref_adm.peak_active,
            self.ref_adm.peak_waiting,
        )
        assert (self.prod_pool.hits, self.prod_pool.misses) == (
            self.ref_pool.hits,
            self.ref_pool.misses,
        )

    def teardown(self):
        # Drain whatever the random sequence left pending; the final
        # states must still agree.
        assert self.prod.run() == self.ref.run()
        self.timelines_identical()


EngineEquivalenceMachine.TestCase.settings = STATE_MACHINE


@pytest.mark.property
class TestEngineEquivalence(EngineEquivalenceMachine.TestCase):
    pass


# -- validation parity (non-stateful) ----------------------------------


@pytest.mark.property
class TestValidationParity:
    @QUICK
    @given(
        delay=st.sampled_from(
            [-1.0, -0.001, float("nan"), float("inf"), float("-inf")]
        )
    )
    def test_bad_delays_rejected_identically(self, delay):
        messages = []
        for env in (Environment(), ReferenceEnvironment()):
            with pytest.raises(ValueError) as excinfo:
                env.timeout(delay)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    @QUICK
    @given(
        when=st.sampled_from(
            [-1.0, -0.001, float("nan"), float("inf"), float("-inf")]
        )
    )
    def test_bad_timeout_at_rejected_identically(self, when):
        messages = []
        for env in (Environment(), ReferenceEnvironment()):
            with pytest.raises(ValueError) as excinfo:
                env.timeout_at(when)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    @QUICK
    @given(delay=delays)
    def test_timeout_at_past_rejected_after_advance(self, delay):
        """Once the clock has moved, times behind it are 'the past' on
        both engines — including by a single ulp."""
        outcomes = []
        for env in (Environment(), ReferenceEnvironment()):
            env.timeout(1.0 + delay)
            env.run()
            past = math.nextafter(env.now, 0.0)
            try:
                env.timeout_at(past)
                outcomes.append("ok")
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]

    @QUICK
    @given(delay=delays, value=event_values)
    def test_single_timeout_timeline(self, delay, value):
        logs = ([], [])
        envs = (Environment(), ReferenceEnvironment())
        for env, log in zip(envs, logs):
            env.timeout(delay, value).wait(
                lambda v, env=env, log=log: log.append((v, env.now))
            )
            env.run()
        assert logs[0] == logs[1]
        assert envs[0].now == envs[1].now
        assert envs[0].event_count == envs[1].event_count
