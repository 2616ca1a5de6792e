"""AdmissionController: MPL cap, FIFO order, invariant enforcement."""

from __future__ import annotations

import pytest

from repro.sim.admission import AdmissionController
from repro.sim.engine import Environment


class TestAdmission:
    def test_uncapped_admits_immediately(self):
        env = Environment()
        controller = AdmissionController(env, max_mpl=None)
        events = [controller.request() for _ in range(5)]
        assert all(event.triggered for event in events)
        assert controller.active == 5
        assert controller.peak_active == 5
        assert controller.queued_total == 0

    def test_cap_queues_the_overflow(self):
        env = Environment()
        controller = AdmissionController(env, max_mpl=2)
        events = [controller.request() for _ in range(5)]
        assert [event.triggered for event in events] == [
            True, True, False, False, False
        ]
        assert controller.active == 2
        assert controller.waiting == 3
        assert controller.queued_total == 3
        assert controller.peak_waiting == 3

    def test_release_admits_in_fifo_order(self):
        env = Environment()
        controller = AdmissionController(env, max_mpl=1)
        first, second, third = (controller.request() for _ in range(3))
        assert first.triggered and not second.triggered
        controller.release()
        assert second.triggered and not third.triggered
        controller.release()
        assert third.triggered
        assert controller.peak_active == 1

    def test_active_never_exceeds_cap_under_churn(self):
        env = Environment()
        controller = AdmissionController(env, max_mpl=3)
        admitted = [controller.request() for _ in range(10)]
        for _ in range(10):
            assert controller.active <= 3
            controller.release()
        assert all(event.triggered for event in admitted)
        assert controller.peak_active == 3
        assert controller.active == 0

    def test_release_without_admission_rejected(self):
        controller = AdmissionController(Environment(), max_mpl=2)
        with pytest.raises(RuntimeError, match="release"):
            controller.release()

    def test_invariant_violation_raises(self):
        # Force the invariant breach the controller guards against.
        env = Environment()
        controller = AdmissionController(env, max_mpl=1)
        controller.request()
        with pytest.raises(RuntimeError, match="admission invariant"):
            controller._grant(env.event())

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(Environment(), max_mpl=0)

    @pytest.mark.parametrize("cap", [-1, 2.5, True, "4"])
    def test_cap_outside_its_domain_rejected_naming_it(self, cap):
        # Regression: 2.5 and True used to construct a controller.
        with pytest.raises(ValueError) as exc:
            AdmissionController(Environment(), cap)
        assert str(exc.value) == (
            "AdmissionController.max_mpl must be None or an integer >= 1, "
            f"got {cap!r}"
        )
