"""Tests for the discrete-event simulation core."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator


class TestSchedule:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestCancel:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(event)
        sim.run()
        assert log == []

    def test_cancel_one_of_many(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("keep"))
        event = sim.schedule(2.0, lambda: log.append("drop"))
        sim.schedule(3.0, lambda: log.append("keep2"))
        sim.cancel(event)
        sim.run()
        assert log == ["keep", "keep2"]


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        ran = sim.run_until(2.0)
        assert ran == 2
        assert log == [1.0, 2.0]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0


class TestPeriodic:
    def test_periodic_fires_repeatedly(self):
        sim = Simulator()
        hits = []
        sim.schedule_periodic(1.0, lambda: hits.append(sim.now))
        sim.run_until(5.5)
        assert hits == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_function(self):
        sim = Simulator()
        hits = []
        stop = sim.schedule_periodic(1.0, lambda: hits.append(sim.now))
        sim.run_until(2.5)
        stop()
        sim.run_until(10.0)
        assert hits == [1.0, 2.0]

    def test_jitter_applied(self):
        sim = Simulator()
        hits = []
        sim.schedule_periodic(1.0, lambda: hits.append(sim.now), jitter=lambda: 0.5)
        sim.run_until(4.0)
        # Period is 1.5 after the first firing at t=1.0.
        assert hits == [1.0, 2.5, 4.0]

    def test_bad_interval(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0, lambda: None)


class TestRunawayGuard:
    def test_run_raises_on_infinite_chain(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_executed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(float(t + 1), lambda: None)
        sim.run()
        assert sim.events_executed == 5
