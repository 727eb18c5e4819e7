import pytest

from repro.errors import SimulationError
from repro.simcore import Simulator, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=10.0).now == 10.0

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fifo(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_schedule_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_schedule_non_finite_delay_raises(self, delay):
        """Regression: NaN compares False against 0, so the old
        `delay < 0` guard waved NaN through and silently corrupted heap
        order; inf parked never-drainable events in the queue."""
        with pytest.raises(SimulationError):
            Simulator().schedule(delay, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_schedule_at_non_finite_time_raises(self, time):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(time, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_timeout_non_finite_delay_raises(self, delay):
        with pytest.raises(SimulationError):
            Timeout(delay)

    def test_nan_schedule_cannot_corrupt_order(self):
        """The concrete corruption the guard prevents: a NaN-timed event
        poisons heap comparisons for every later event."""
        sim = Simulator()
        order = []
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), order.append, "poison")
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.run()
        assert order == ["a", "b"]

    def test_cancel_prevents_callback(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, 1)
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_double_cancel_is_safe(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 2.0

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(sim.now)
            sim.schedule(1.0, inner)

        def inner():
            seen.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.0, 2.0]


class TestRun:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 1)
        sim.run(until=4.0)
        assert fired == []
        sim.run()
        assert fired == [1]
        assert sim.now == 10.0

    def test_run_until_past_last_event_advances_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_event_count(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.event_count == 7

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def evil():
            sim.run()

        sim.schedule(1.0, evil)
        with pytest.raises(SimulationError):
            sim.run()


class TestRunProcess:
    def test_returns_process_value(self):
        sim = Simulator()

        def body():
            yield Timeout(2.0)
            return 42

        assert sim.run_process(body()) == 42
        assert sim.now == 2.0

    def test_raises_process_exception(self):
        sim = Simulator()

        def body():
            yield Timeout(1.0)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(body())

    def test_deadlock_detected(self):
        sim = Simulator()

        def body():
            yield sim.signal()  # never triggered

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(body())
