import pytest

from repro.errors import SimulationError
from repro.simcore import AllOf, Interrupt, Signal, Simulator, Timeout


class TestTimeout:
    def test_sequential_timeouts(self):
        sim = Simulator()
        times = []

        def body():
            yield Timeout(1.0)
            times.append(sim.now)
            yield Timeout(2.5)
            times.append(sim.now)

        sim.process(body())
        sim.run()
        assert times == [1.0, 3.5]

    def test_timeout_result_value(self):
        sim = Simulator()

        def body():
            got = yield Timeout(1.0, result="hello")
            return got

        assert sim.run_process(body()) == "hello"

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-0.5)

    def test_zero_delay_runs_this_instant(self):
        sim = Simulator()

        def body():
            yield Timeout(0.0)
            return sim.now

        assert sim.run_process(body()) == 0.0


class TestSignal:
    def test_trigger_resumes_waiter(self):
        sim = Simulator()
        sig = sim.signal()

        def waiter():
            value = yield sig
            return (sim.now, value)

        def firer():
            yield Timeout(5.0)
            sig.trigger("data")

        proc = sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert proc.value == (5.0, "data")

    def test_multiple_waiters_all_resume(self):
        sim = Simulator()
        sig = sim.signal()
        results = []

        def waiter(i):
            value = yield sig
            results.append((i, value))

        for i in range(3):
            sim.process(waiter(i))

        def firer():
            yield Timeout(1.0)
            sig.trigger("x")

        sim.process(firer())
        sim.run()
        assert results == [(0, "x"), (1, "x"), (2, "x")]

    def test_yield_already_fired_signal_returns_immediately(self):
        sim = Simulator()
        sig = sim.signal()
        sig.trigger(99)

        def body():
            value = yield sig
            return value

        assert sim.run_process(body()) == 99

    def test_fail_raises_in_waiter(self):
        sim = Simulator()
        sig = sim.signal()

        def body():
            yield sig

        def firer():
            yield Timeout(1.0)
            sig.fail(RuntimeError("bad"))

        sim.process(firer())
        with pytest.raises(RuntimeError, match="bad"):
            sim.run_process(body())

    def test_unbound_signal_trigger_raises(self):
        with pytest.raises(SimulationError):
            Signal().trigger()


class TestJoin:
    def test_join_receives_return_value(self):
        sim = Simulator()

        def child():
            yield Timeout(3.0)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return (sim.now, result)

        assert sim.run_process(parent()) == (3.0, "child-result")

    def test_join_reraises_child_exception(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)
            raise KeyError("oops")

        def parent():
            yield sim.process(child())

        with pytest.raises(KeyError):
            sim.run_process(parent())

    def test_join_already_finished_process(self):
        sim = Simulator()

        def child():
            yield Timeout(1.0)
            return 7

        proc = sim.process(child())
        sim.run()

        def parent():
            value = yield proc
            return value

        assert sim.run_process(parent()) == 7


class TestCombinators:
    def test_allof_waits_for_slowest(self):
        sim = Simulator()

        def body():
            values = yield AllOf([Timeout(1.0, "a"), Timeout(5.0, "b"), Timeout(2.0, "c")])
            return (sim.now, values)

        assert sim.run_process(body()) == (5.0, ["a", "b", "c"])

    def test_allof_empty_fires_immediately(self):
        sim = Simulator()

        def body():
            values = yield AllOf([])
            return values

        assert sim.run_process(body()) == []

    def test_allof_of_processes(self):
        sim = Simulator()

        def child(d, tag):
            yield Timeout(d)
            return tag

        def parent():
            procs = [sim.process(child(d, i)) for i, d in enumerate([2.0, 1.0])]
            values = yield AllOf(procs)
            return values

        assert sim.run_process(parent()) == [0, 1]


class TestInterrupt:
    def test_interrupt_raises_in_process(self):
        sim = Simulator()
        caught = []

        def victim():
            try:
                yield Timeout(100.0)
            except Interrupt as intr:
                caught.append((sim.now, intr.cause))
            return "recovered"

        proc = sim.process(victim())

        def attacker():
            yield Timeout(2.0)
            proc.interrupt(cause="preempted")

        sim.process(attacker())
        sim.run()
        assert caught == [(2.0, "preempted")]
        assert proc.value == "recovered"

    def test_unhandled_interrupt_fails_process(self):
        sim = Simulator()

        def victim():
            yield Timeout(100.0)

        proc = sim.process(victim())

        def attacker():
            yield Timeout(1.0)
            proc.interrupt()

        sim.process(attacker())
        sim.run()
        assert proc.fired
        with pytest.raises(Interrupt):
            proc.value

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def victim():
            yield Timeout(1.0)
            return 1

        proc = sim.process(victim())
        sim.run()
        proc.interrupt()
        assert proc.value == 1

    def test_stale_timeout_does_not_resume_after_interrupt(self):
        sim = Simulator()
        resumptions = []

        def victim():
            try:
                yield Timeout(5.0)
                resumptions.append("timeout")
            except Interrupt:
                resumptions.append("interrupt")
                yield Timeout(10.0)
                resumptions.append("after")

        proc = sim.process(victim())

        def attacker():
            yield Timeout(1.0)
            proc.interrupt()

        sim.process(attacker())
        sim.run()
        assert resumptions == ["interrupt", "after"]
        assert sim.now == 11.0


class TestErrors:
    def test_yield_non_waitable_fails_process(self):
        sim = Simulator()

        def body():
            yield 42

        with pytest.raises(SimulationError, match="expected a Waitable"):
            sim.run_process(body())

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_exception_propagates_with_type(self):
        sim = Simulator()

        def body():
            yield Timeout(1.0)
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            sim.run_process(body())
