"""Kernel edge cases: combinators meeting interrupts and failures."""

import pytest

from repro.simcore import AllOf, Interrupt, Simulator, Timeout


class TestInterruptDuringCombinators:
    def test_interrupt_while_waiting_on_allof(self):
        sim = Simulator()
        outcome = []

        def victim():
            try:
                yield AllOf([Timeout(100.0), Timeout(200.0)])
                outcome.append("completed")
            except Interrupt:
                outcome.append("interrupted")

        proc = sim.process(victim())

        def attacker():
            yield Timeout(5.0)
            proc.interrupt()

        sim.process(attacker())
        sim.run()
        assert outcome == ["interrupted"]
        # the abandoned timeouts still drain without waking the victim
        assert sim.now == 200.0


class TestFailurePropagation:
    def test_allof_fails_fast_on_first_child_failure(self):
        sim = Simulator()

        def failing_child():
            yield Timeout(1.0)
            raise RuntimeError("child died")

        def slow_child():
            yield Timeout(100.0)
            return "slow"

        def parent():
            yield AllOf([sim.process(failing_child()),
                         sim.process(slow_child())])

        proc = sim.process(parent())
        sim.run()
        with pytest.raises(RuntimeError, match="child died"):
            proc.value
        # parent failed at t=1, not t=100 (fail-fast)...
        # the slow child still ran to completion though
        assert sim.now == 100.0

    def test_nested_combinators(self):
        sim = Simulator()

        def body():
            value = yield AllOf([
                AllOf([Timeout(5.0, "slow"), Timeout(1.0, "fast")]),
                Timeout(2.0, "other"),
            ])
            return (sim.now, value)

        t, value = sim.run_process(body())
        assert t == 5.0
        assert value == [["slow", "fast"], "other"]

    def test_allof_shared_waitable_between_parents(self):
        """Two processes awaiting combinators over one shared timeout."""
        sim = Simulator()
        shared = sim.timeout(3.0, "shared")
        results = []

        def waiter(tag, extra_delay):
            value = yield AllOf([shared, Timeout(extra_delay, tag)])
            results.append((tag, sim.now, value))

        sim.process(waiter("a", 1.0))
        sim.process(waiter("b", 5.0))
        sim.run()
        assert ("a", 3.0, ["shared", "a"]) in results
        assert ("b", 5.0, ["shared", "b"]) in results
