"""Discrete-event engine: ordering, processes, joins."""

import pytest

from repro.sim.engine import AllOf, Environment


class TestScheduling:
    def test_timeouts_fire_in_order(self):
        env = Environment()
        log = []
        env.timeout(2.0).wait(lambda _v: log.append("b"))
        env.timeout(1.0).wait(lambda _v: log.append("a"))
        env.timeout(3.0).wait(lambda _v: log.append("c"))
        env.run()
        assert log == ["a", "b", "c"]
        assert env.now == 3.0

    def test_fifo_tie_break_at_same_time(self):
        env = Environment()
        log = []
        env.timeout(1.0).wait(lambda _v: log.append(1))
        env.timeout(1.0).wait(lambda _v: log.append(2))
        env.run()
        assert log == [1, 2]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_run_until(self):
        env = Environment()
        log = []
        env.timeout(1.0).wait(lambda _v: log.append("early"))
        env.timeout(5.0).wait(lambda _v: log.append("late"))
        env.run(until=2.0)
        assert log == ["early"]
        assert env.now == 2.0
        env.run()
        assert log == ["early", "late"]


class TestEvents:
    def test_event_value_delivered(self):
        env = Environment()
        received = []
        event = env.event()
        event.wait(received.append)
        event.succeed("payload")
        env.run()
        assert received == ["payload"]

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_wait_on_triggered_event_fires(self):
        env = Environment()
        event = env.event()
        event.succeed(7)
        late = []
        event.wait(late.append)
        env.run()
        assert late == [7]


class TestProcesses:
    def test_process_sequence(self):
        env = Environment()
        log = []

        def body():
            log.append(("start", env.now))
            yield env.timeout(1.5)
            log.append(("mid", env.now))
            yield env.timeout(0.5)
            log.append(("end", env.now))
            return "done"

        process = env.process(body())
        env.run()
        assert log == [("start", 0.0), ("mid", 1.5), ("end", 2.0)]
        assert process.done.value == "done"

    def test_process_receives_event_value(self):
        env = Environment()

        def body():
            value = yield env.timeout(1.0, value="ping")
            return value

        process = env.process(body())
        env.run()
        assert process.done.value == "ping"

    def test_yielding_non_event_raises(self):
        env = Environment()

        def body():
            yield 42

        env.process(body())
        with pytest.raises(TypeError, match="expected Event"):
            env.run()

    def test_run_until_event(self):
        env = Environment()

        def body():
            yield env.timeout(2.0)
            return "finished"

        process = env.process(body())
        env.timeout(10.0)  # later noise in the schedule
        value = env.run_until_event(process.done)
        assert value == "finished"
        assert env.now == 2.0

    def test_run_until_event_never_fires(self):
        env = Environment()
        orphan = env.event()
        with pytest.raises(RuntimeError, match="drained"):
            env.run_until_event(orphan)


class TestAllOf:
    def test_waits_for_all(self):
        env = Environment()
        events = [env.timeout(t) for t in (1.0, 3.0, 2.0)]
        fired = []
        AllOf(env, events).wait(lambda _v: fired.append(env.now))
        env.run()
        assert fired == [3.0]

    def test_empty_all_of_defers_like_pre_triggered_children(self):
        """AllOf([]) and AllOf over all-triggered children behave the
        same: untriggered at construction, triggered after dispatch."""
        env = Environment()
        done = env.event()
        done.succeed("x")
        empty = AllOf(env, [])
        complete = AllOf(env, [done])
        assert not empty.triggered
        assert not complete.triggered
        env.run()
        assert empty.triggered
        assert empty.value == []
        assert complete.triggered
        assert complete.value == ["x"]

    def test_empty_all_of_value_delivered_to_waiter(self):
        env = Environment()
        received = []
        AllOf(env, []).wait(received.append)
        env.run()
        assert received == [[]]

    def test_process_joins_parallel_work(self):
        env = Environment()

        def body():
            yield env.all_of([env.timeout(2.0), env.timeout(5.0)])
            return env.now

        process = env.process(body())
        env.run()
        assert process.done.value == 5.0


class TestClockRegression:
    """run(until) must never move simulation time backwards."""

    def test_past_horizon_is_clamped(self):
        env = Environment()
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0
        env.timeout(3.0)  # pending event at t=8
        assert env.run(until=1.0) == 5.0
        assert env.now == 5.0

    def test_resumed_run_with_stale_horizon(self):
        """A later run with an earlier horizon dispatches nothing and
        leaves the clock where the previous run put it."""
        env = Environment()
        log = []
        env.timeout(1.0).wait(lambda _v: log.append("a"))
        env.timeout(4.0).wait(lambda _v: log.append("b"))
        env.run(until=2.0)
        assert env.now == 2.0
        env.run(until=1.0)
        assert log == ["a"]
        assert env.now == 2.0
        # Draining before the horizon leaves the clock at the last
        # dispatched event (it does not coast forward to `until`).
        env.run(until=6.0)
        assert log == ["a", "b"]
        assert env.now == 4.0

    def test_past_horizon_skips_leftover_ready_entries(self):
        """Regression (found by the equivalence harness):
        run_until_event can exit with a zero-delay callback still in
        the ready deque; a later run with a horizon in the past must
        not dispatch it — it sits at the current time, beyond the
        horizon."""
        env = Environment()
        env.timeout(2.0)  # place the clock at 2.0 first
        env.run()
        observed = []

        def body():
            return "ret"
            yield

        process = env.process(body())
        process.done.wait(observed.append)
        # run_until_event stops the moment done triggers, leaving the
        # observer callback queued at t=2.0.
        assert env.run_until_event(process.done) == "ret"
        assert observed == []
        env.run(until=1.0)  # past horizon: nothing may dispatch
        assert observed == []
        assert env.now == 2.0
        env.run(until=2.0)  # horizon at the current instant: it fires
        assert observed == ["ret"]

    def test_future_horizon_still_advances_clock(self):
        env = Environment()
        env.timeout(10.0)
        assert env.run(until=4.0) == 4.0
        assert env.now == 4.0

    def test_monotone_now_across_interleaved_runs(self):
        env = Environment()
        seen = []
        def body():
            for _ in range(4):
                yield env.timeout(1.0)
                seen.append(env.now)
        env.process(body())
        horizons = [2.5, 0.5, 3.0, 1.0, 10.0]
        floor = 0.0
        for horizon in horizons:
            env.run(until=horizon)
            assert env.now >= floor
            floor = env.now
        assert seen == [1.0, 2.0, 3.0, 4.0]


class TestNonFiniteDelays:
    """NaN passes a bare `delay < 0` check and corrupts heap order;
    inf parks callbacks at an unreachable time.  Both are rejected."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_timeout_rejects_non_finite(self, bad):
        env = Environment()
        with pytest.raises(ValueError, match="finite|past"):
            env.timeout(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_rejects_non_finite(self, bad):
        env = Environment()
        with pytest.raises(ValueError, match="finite|past"):
            env._schedule(bad, lambda _v: None, None)

    def test_nan_rejected_during_dispatch_too(self):
        env = Environment()
        failures = []
        def body():
            try:
                yield env.timeout(float("nan"))
            except ValueError as error:
                failures.append(str(error))
            yield env.timeout(1.0)
        env.process(body())
        env.run()
        assert failures and "finite" in failures[0]
        assert env.now == 1.0

    def test_negative_message_unchanged(self):
        env = Environment()
        with pytest.raises(ValueError, match="cannot schedule into the past"):
            env.timeout(-0.5)


class TestDispatchEdgeCases:
    """Edge cases the equivalence harness exercises, pinned directly."""

    def test_run_until_event_drained_after_progress(self):
        env = Environment()
        log = []
        env.timeout(1.0).wait(lambda _v: log.append("tick"))
        orphan = env.event()
        with pytest.raises(RuntimeError, match="drained"):
            env.run_until_event(orphan)
        # The schedule really ran dry before raising.
        assert log == ["tick"]
        assert env.now == 1.0

    def test_double_succeed_during_dispatch(self):
        env = Environment()
        target = env.event()
        errors = []
        def body():
            yield env.timeout(1.0)
            target.succeed("first")
            try:
                target.succeed("second")
            except RuntimeError as error:
                errors.append(str(error))
        env.process(body())
        env.run()
        assert errors == ["event already triggered"]
        assert target.value == "first"

    def test_wait_on_triggered_event_during_dispatch(self):
        env = Environment()
        pre = env.event()
        pre.succeed(11)
        order = []
        def body():
            value = yield pre  # already triggered: deferred resume
            order.append(("resumed", value, env.now))
            yield env.timeout(1.0)
            order.append(("after", env.now))
        env.process(body())
        env.run()
        assert order == [("resumed", 11, 0.0), ("after", 1.0)]

    def test_wait_on_triggered_event_outside_dispatch(self):
        env = Environment()
        event = env.event()
        event.succeed(3)
        late = []
        event.wait(late.append)
        assert late == []  # deferred, not synchronous
        env.run()
        assert late == [3]

    def test_inline_succeed_vs_ready_deque_tie_order(self):
        """A succeed during dispatch must slot into the (time, seq)
        order whether it runs inline (nothing else pending) or through
        the ready deque (a tie at the current instant)."""
        env = Environment()
        order = []
        gate_a = env.event()
        gate_b = env.event()
        def waiter(name, gate):
            value = yield gate
            order.append((name, value, env.now))
        def trigger():
            yield env.timeout(1.0)
            # Two zero-delay wakeups at one instant: deque path.
            gate_a.succeed("a")
            gate_b.succeed("b")
        env.process(waiter("first", gate_a))
        env.process(waiter("second", gate_b))
        env.process(trigger())
        env.run()
        assert order == [("first", "a", 1.0), ("second", "b", 1.0)]

    def test_mid_callback_succeed_defers_sole_waiter(self):
        """Regression (found by the equivalence harness): succeed() in
        the middle of a dispatched callback must not run the sole
        waiter inline — the remainder of the current callback comes
        first, exactly as a (time, seq) heap would order it."""
        env = Environment()
        order = []
        gate = env.event()
        def waiter():
            value = yield gate
            order.append(value)
            order.append(("waiter-timeout", (yield env.timeout(0.0, "w"))))
        def trigger():
            yield env.timeout(1.0)
            gate.succeed("woken")  # sole waiter, heap head in future
            order.append("after-succeed")
            order.append(("trigger-timeout", (yield env.timeout(0.0, "t"))))
        env.process(waiter())
        env.process(trigger())
        env.run()
        # Pure (time, seq) order: the waiter's resume was scheduled at
        # succeed() time, so it dispatches before trigger's zero-delay
        # timeout — but only after trigger's callback finished.
        assert order == [
            "after-succeed",
            "woken",
            ("trigger-timeout", "t"),
            ("waiter-timeout", "w"),
        ]

    def test_event_count_independent_of_fast_paths(self):
        """The same logical timeline through the inline path and the
        plain path counts the same number of events."""
        def build(extra_noise):
            env = Environment()
            gate = env.event()
            def waiter():
                yield gate
            def trigger():
                yield env.timeout(1.0)
                gate.succeed(None)
            env.process(waiter())
            env.process(trigger())
            if extra_noise:
                env.timeout(1.0)  # tie at the succeed instant: deque path
            env.run()
            return env.event_count
        assert build(False) + 1 == build(True)

    def test_process_yielding_non_event_after_first_yield(self):
        env = Environment()
        def body():
            yield env.timeout(1.0)
            yield "not an event"
        env.process(body())
        with pytest.raises(TypeError, match="expected Event"):
            env.run()


class TestFarFutureOrdering:
    """Entries far beyond the current instant (think times, arrival
    gaps, degraded-disk completions) dispatch in exact ``(time, seq)``
    order, interleaved with near-future ones."""

    def test_far_and_near_interleave_in_time_order(self):
        env = Environment()
        log = []
        # Far first, then near, then farther still — dispatch must be
        # pure time order.
        env.timeout(3.5).wait(lambda _v: log.append("far"))
        env.timeout(0.25).wait(lambda _v: log.append("near"))
        env.timeout(7.25).wait(lambda _v: log.append("farther"))
        env.timeout(1.5).wait(lambda _v: log.append("mid"))
        env.run()
        assert log == ["near", "mid", "far", "farther"]
        assert env.now == 7.25

    def test_fifo_ties_preserved_far_in_the_future(self):
        env = Environment()
        log = []
        when = 2.0
        for tag in range(4):
            env.timeout(when, tag).wait(
                lambda _v, tag=tag: log.append(tag)
            )
        env.run()
        assert log == [0, 1, 2, 3]

    def test_delays_one_ulp_apart_dispatch_in_time_order(self):
        from math import nextafter

        env = Environment()
        log = []
        for when in (
            nextafter(1.0, 0.0),
            1.0,
            nextafter(1.0, 2.0),
        ):
            env.timeout(when, when).wait(lambda v: log.append(v))
        env.run()
        assert log == sorted(log)
        assert env.now == nextafter(1.0, 2.0)

    def test_callback_scheduling_between_pending_far_entries(self):
        """A callback dispatched far in the future can schedule new work
        before the next pending far entry; it must still run in time
        order."""
        env = Environment()
        log = []

        def first(_value):
            log.append(("first", env.now))
            env.timeout(0.2, None).wait(
                lambda _v: log.append(("inserted", env.now))
            )

        env.timeout(5.1).wait(first)
        env.timeout(5.7).wait(lambda _v: log.append(("second", env.now)))
        env.run()
        assert log == [
            ("first", 5.1),
            ("inserted", 5.1 + 0.2),
            ("second", 5.7),
        ]

    def test_many_close_far_future_entries_dispatch_in_time_order(self):
        env = Environment()
        log = []
        n = 512 + 64
        for i in range(n):
            when = 2.0 + (i % 97) / 100.0
            env.timeout(when, (when, i)).wait(lambda v: log.append(v))
        env.run()
        assert log == sorted(log)
        assert len(log) == n

    def test_extreme_far_future_times_dispatch_in_order(self):
        env = Environment()
        log = []
        huge = 1.0 * (1 << 62) * 4.0
        env.timeout(huge, "huge").wait(log.append)
        env.timeout(huge * 2.0, "huger").wait(log.append)
        env.timeout(1.0, "near").wait(log.append)
        env.run()
        assert log == ["near", "huge", "huger"]
        assert env.now == huge * 2.0

    def test_run_until_between_far_entries_then_resume(self):
        env = Environment()
        log = []
        env.timeout(4.25, "far").wait(log.append)
        env.timeout(0.5, "near").wait(log.append)
        assert env.run(until=2.0) == 2.0
        assert log == ["near"]
        assert env.now == 2.0
        env.run()
        assert log == ["near", "far"]
        assert env.now == 4.25

    def test_event_count_counts_every_far_future_dispatch(self):
        """One count per dispatched callback, however far ahead the
        entry was scheduled."""
        env = Environment()
        for i in range(10):
            env.timeout(0.1 + i)
        env.run()
        assert env.event_count == 10


class TestTimeoutAt:
    def test_fires_at_the_exact_absolute_time(self):
        env = Environment()
        log = []
        env.timeout_at(2.75, "abs").wait(
            lambda v: log.append((v, env.now))
        )
        env.run()
        assert log == [("abs", 2.75)]

    def test_not_equivalent_to_relative_timeout_rounding(self):
        """The reason timeout_at exists: now + (when - now) rounds."""
        now = 0.16702264342323492
        when = 13.541220373237197
        env = Environment()
        # Exact: the clock starts at 0.0 and 0.0 + now == now.
        env.timeout(now).wait(lambda _v: None)
        env.run()
        assert env.now == now
        # The relative form lands one ulp short of the target instant.
        relative = env.now + (when - env.now)
        assert relative == 13.541220373237195
        assert relative != when
        log = []
        env.timeout_at(when).wait(lambda _v: log.append(env.now))
        env.run()
        assert log == [when]
        assert env.now == when

    def test_at_current_instant_runs_after_already_scheduled_ties(self):
        env = Environment()
        log = []

        def body():
            yield env.timeout(1.0)
            env.timeout(0.0, "tie").wait(lambda _v: log.append("tie"))
            yield env.timeout_at(env.now, "at-now").wait(
                lambda _v: log.append("at-now")
            ) or env.timeout(0.0)

        env.process(body())
        env.run()
        assert log == ["tie", "at-now"]

    def test_into_the_past_rejected(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError, match="cannot schedule into the past"):
            env.timeout_at(0.5)

    def test_non_finite_rejected(self):
        env = Environment()
        for when in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="must be finite"):
                env.timeout_at(when)

    def test_far_instant_dispatches_after_a_near_one(self):
        env = Environment()
        log = []
        env.timeout_at(9.5, "far").wait(log.append)
        env.timeout_at(0.5, "near").wait(log.append)
        env.run()
        assert log == ["near", "far"]
        assert env.now == 9.5
