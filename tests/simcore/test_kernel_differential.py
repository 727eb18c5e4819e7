"""Differential validation of the event-kernel fast path.

The frozen seed kernel in ``tests/oracles/seed_kernel.py`` (naive heapq
loop: tuple-ordered events, peek+pop double traversal, no compaction /
free list / same-instant lane) is the reference. Randomized
schedule/cancel/timeout workloads drive both kernels and must observe
the identical (time, callback-order) event sequence — the fast path is
an optimization, never a semantics change.

Also here: perf guards (event throughput, post-compaction heap bound)
and regression tests for the fast-path bookkeeping itself.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Simulator, Timeout
from repro.simcore.event import _COMPACT_MIN_DEAD, EventQueue, _should_reclaim
from tests.oracles import HeapEventQueue, RefSimulator


def _production_sim():
    return Simulator(queue=EventQueue())


def _heap_sim():
    return Simulator(queue=HeapEventQueue())


# ---------------------------------------------------------------------------
# Randomized differential workloads
# ---------------------------------------------------------------------------

# One workload op: (kind, a, b) — interpreted by _drive below.
_op = st.tuples(
    st.sampled_from(["schedule", "cancelable", "timeout_proc", "slice"]),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 19),
)


def _drive(sim_cls, ops):
    """Run a scripted workload on a kernel; returns the observed
    (time, tag) firing sequence."""
    sim = sim_cls()
    fired = []

    def note(tag):
        fired.append((sim.now, tag))

    cancelable = []
    for i, (kind, delay, modulus) in enumerate(ops):
        if kind == "schedule":
            sim.schedule(delay, note, f"s{i}")
        elif kind == "cancelable":
            # watchdog shape: schedule far out, cancel most of them
            # from a later callback
            event = sim.schedule(delay + 100.0, note, f"w{i}")
            cancelable.append(event)
            if modulus % 3 != 0:
                sim.schedule(delay, lambda e=event: sim.cancel(e))
        elif kind == "timeout_proc":
            def body(i=i, delay=delay, modulus=modulus):
                for k in range(modulus % 4 + 1):
                    yield Timeout(delay / (k + 1))
                    note(f"p{i}.{k}")
                    if modulus % 5 == 0:
                        yield Timeout(0.0)      # same-instant fast path
                        note(f"p{i}.{k}z")
            sim.process(body())
        elif kind == "slice":
            sim.schedule(delay + 60.0, note, f"x{i}")  # beyond the until=75 slice for small delays
    sim.run(until=75.0)     # exercises push-back of the overshooting event
    sim.run()
    return fired, sim.now, sim.event_count


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_op, min_size=1, max_size=60))
    def test_identical_firing_sequence(self, ops):
        """The production kernel and the frozen heap kernel must observe
        the frozen seed kernel's exact firing sequence."""
        ref = _drive(RefSimulator, ops)
        assert _drive(_production_sim, ops) == ref
        assert _drive(_heap_sim, ops) == ref

    def test_dense_same_instant_interleaving(self):
        """Zero-delay timeouts (ready lane) interleaved with equal-time
        heap events must fire in exact seq order on both kernels."""
        ops = [("timeout_proc", 0.0, 5), ("schedule", 0.0, 0)] * 10 + \
              [("cancelable", 0.0, 1)] * 5
        ref = _drive(RefSimulator, ops)
        assert _drive(_production_sim, ops) == ref
        assert _drive(_heap_sim, ops) == ref


# ---------------------------------------------------------------------------
# Fast-path mechanics
# ---------------------------------------------------------------------------

def _noop():
    pass


class TestCompaction:
    def test_mass_cancel_compacts_heap(self):
        q = EventQueue()
        events = [q.push(float(i), _noop) for i in range(1000)]
        for event in events[:900]:
            event.cancelled = True
            q.note_cancelled()
        assert q.compactions >= 1
        # dead entries were rebuilt away: the heap holds ~ the live 100
        assert q.heap_size <= 2 * 100 + _COMPACT_MIN_DEAD
        assert len(q) == 100

    def test_pop_order_survives_compaction(self):
        q = EventQueue()
        events = [q.push(float(i % 13), _noop, (i,)) for i in range(500)]
        for i, event in enumerate(events):
            if i % 4 != 0:
                event.cancelled = True
                q.note_cancelled()
        survivors = [e for i, e in enumerate(events) if i % 4 == 0]
        expected = sorted(survivors, key=lambda e: (e.time, e.seq))
        popped = [q.pop() for _ in range(len(q))]
        assert popped == expected

    def test_watchdog_churn_bounds_heap(self):
        """The resilience shape: every attempt arms+cancels a watchdog.
        Without compaction the heap grows by one dead event per attempt;
        with it, heap size stays bounded by the live population."""
        sim = Simulator()

        def attempt_loop(n):
            for _ in range(n):
                watchdog = sim.schedule(1e6, _noop)
                yield Timeout(1.0)
                sim.cancel(watchdog)

        procs = 20
        for _ in range(procs):
            sim.process(attempt_loop(300))
        sim.run()
        # live events at any instant ~ 2 per process; dead watchdogs
        # must not accumulate past the 50% compaction threshold floor
        assert sim._queue.heap_size <= 4 * procs + 2 * _COMPACT_MIN_DEAD

    def test_cancel_after_fire_is_harmless(self):
        """Regression: cancelling an already-fired event must not corrupt
        the queue's dead-entry accounting (pre-fast-path, it silently
        decremented the live count and could truncate the run)."""
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "a")
        sim.run()
        sim.cancel(event)           # stale handle, event already fired
        sim.cancel(event)
        sim.schedule(1.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]
        assert len(sim._queue) == 0


class TestReadyLane:
    def test_zero_delay_timeout_bypasses_heap(self):
        sim = Simulator()

        def body():
            yield Timeout(0.0)
            return "done"

        proc = sim.process(body())
        # process start + timeout fire + resume all ride the ready lane
        assert sim._queue.heap_size == 0
        sim.run()
        assert proc.value == "done"

    def test_ready_lane_respects_global_fifo(self):
        """A heap event scheduled *before* an immediate at the same
        instant must still fire first (seq order, not lane order)."""
        sim = Simulator()
        order = []

        def kick():
            sim.schedule(0.0, order.append, "heap-first")
            sim._immediate(order.append, "lane-second")
            sim.schedule(0.0, order.append, "heap-third")

        sim.schedule(1.0, kick)
        sim.run()
        assert order == ["heap-first", "lane-second", "heap-third"]


# ---------------------------------------------------------------------------
# Reclamation policy (satellite: explicit policy, both branches)
# ---------------------------------------------------------------------------

class TestReclaimPolicy:
    def test_large_population_branch(self):
        # fires exactly when dead >= 64 AND dead > live
        assert _should_reclaim(dead=64, live=63)
        assert not _should_reclaim(dead=64, live=64)
        assert not _should_reclaim(dead=63, live=16)   # below floor...
        assert _should_reclaim(dead=63, live=15)       # ...small branch

    def test_small_population_branch(self):
        # the latent-gap fix: tiny live sets reclaim at dead >= 8
        # once dead exceed 4x live
        assert _should_reclaim(dead=8, live=1)
        assert not _should_reclaim(dead=8, live=2)
        assert not _should_reclaim(dead=7, live=0)     # below small floor
        assert _should_reclaim(dead=9, live=2)

    @pytest.mark.parametrize("queue_cls", [HeapEventQueue, EventQueue])
    def test_small_heap_churn_stays_bounded(self, queue_cls):
        """Sustained cancel churn against a tiny live set: the old
        ``dead >= 64`` floor never fired here, so dead entries pinned
        ~63 slots forever. The small-population clause reclaims them."""
        q = queue_cls()
        keeper = q.push(1e9, _noop)     # one long-lived event
        for i in range(500):
            e = q.push(500.0 + i, _noop)
            e.cancelled = True
            q.note_cancelled()
            assert q.heap_size <= 12    # 1 live + at most ~2x4 dead
        assert q.compactions >= 1
        assert not keeper.cancelled

    @pytest.mark.parametrize("queue_cls", [HeapEventQueue, EventQueue])
    def test_reclaim_preserves_order(self, queue_cls):
        q = queue_cls()
        events = [q.push(float(i % 7), _noop, (i,)) for i in range(300)]
        for i, e in enumerate(events):
            if i % 3 != 0:
                e.cancelled = True
                q.note_cancelled()
        assert q.compactions >= 1
        survivors = [e for i, e in enumerate(events) if i % 3 == 0]
        expected = sorted(survivors, key=lambda e: (e.time, e.seq))
        assert [q.pop() for _ in range(len(q))] == expected


# ---------------------------------------------------------------------------
# Pop order under interleaved push / pop / cancel
# ---------------------------------------------------------------------------

class TestPopOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 1e4), st.integers(0, 3)),
        min_size=1, max_size=150,
    ))
    def test_property_interleaved_push_pop_order(self, spec):
        """Random interleaving of pushes, pops, and cancels: the popped
        (time, seq) sequence must be globally sorted, with reclamation
        running underneath."""
        q = EventQueue()
        last = (-1.0, -1)
        live = 0
        cancelable = []
        for t, action in spec:
            if action == 0 or not live:
                cancelable.append(q.push(max(t, last[0]), _noop))
                live += 1
            elif action == 1:
                e = q.pop()
                key = (e.time, e.seq)
                assert key > last
                last = key
                live -= 1
                if e in cancelable:     # fired: a later cancel would be
                    cancelable.remove(e)  # a stale-handle no-op

            elif action == 2 and cancelable:
                e = cancelable.pop()
                if not e.cancelled:
                    e.cancelled = True
                    q.note_cancelled()
                    live -= 1
            else:
                q.push(max(t, last[0]) + 1.0, _noop)
                live += 1
        popped = [q.pop() for _ in range(len(q))]
        keys = [(e.time, e.seq) for e in popped]
        assert keys == sorted(keys)
        if keys:
            assert keys[0] > last


# ---------------------------------------------------------------------------
# Perf guards — generous bounds, catching order-of-magnitude regressions
# ---------------------------------------------------------------------------

class TestPerfGuards:
    def test_event_throughput_floor(self):
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield Timeout(1.0)

        for _ in range(20):
            sim.process(ticker(200))
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        events_per_s = sim.event_count / elapsed
        # the optimized kernel does ~500k/s on a weak core; 50k is the
        # "something is catastrophically wrong" floor
        assert events_per_s > 50_000, f"{events_per_s:.0f} events/s"

    def test_timeout_churn_throughput_floor(self):
        sim = Simulator()

        def attempt_loop(n):
            for i in range(n):
                watchdog = sim.schedule(500.0, _noop)
                yield Timeout(0.5)
                if i % 10 != 0:
                    sim.cancel(watchdog)

        for _ in range(10):
            sim.process(attempt_loop(300))
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        assert sim.event_count / elapsed > 30_000
        # and the watchdog graveyard stayed compacted
        assert sim._queue.heap_size < 3000
