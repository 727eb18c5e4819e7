import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simcore.event import EventQueue


def noop():
    pass


class TestEventQueue:
    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, noop)
        q.push(1.0, noop)
        q.push(2.0, noop)
        assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_fifo_at_equal_times(self):
        q = EventQueue()
        events = [q.push(1.0, noop, (i,)) for i in range(5)]
        popped = [q.pop() for _ in range(5)]
        assert popped == events

    def test_len_counts_live_events(self):
        q = EventQueue()
        e1 = q.push(1.0, noop)
        q.push(2.0, noop)
        assert len(q) == 2
        e1.cancelled = True
        q.note_cancelled()
        assert len(q) == 1

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, noop, ("a",))
        q.push(2.0, noop, ("b",))
        e1.cancelled = True
        q.note_cancelled()
        assert q.pop().args == ("b",)

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(0.0, noop)
        assert q

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_property_pop_order_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, noop)
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(times)

    @given(
        st.lists(st.tuples(st.floats(0, 100), st.booleans()), min_size=1, max_size=100)
    )
    def test_property_cancellation_preserves_rest(self, spec):
        q = EventQueue()
        events = []
        for t, cancel in spec:
            events.append((q.push(t, noop), cancel))
        kept = []
        for event, cancel in events:
            if cancel:
                event.cancelled = True
                q.note_cancelled()
            else:
                kept.append(event)
        popped = [q.pop() for _ in range(len(q))]
        assert sorted(popped, key=id) == sorted(kept, key=id)
        assert [e.time for e in popped] == sorted(e.time for e in kept)
