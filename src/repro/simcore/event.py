"""Event and event-queue primitives for the discrete-event kernel.

The queue is the hottest structure in the whole system — every timeout,
wakeup, and watchdog in every experiment passes through it. Its external
contract: global ``(time, seq)`` FIFO order, lazy O(1) cancellation,
and a same-instant ready lane.

:class:`EventQueue` is a binary heap plus the ready lane. Cancelled
events stay in the heap until popped or compacted away
(:func:`_should_reclaim`), which keeps ``cancel`` O(1) while bounding the
transient growth from watchdogs that rarely fire. The differential suite
in ``tests/simcore/test_kernel_differential.py`` drives this queue, the
frozen heap kernel in ``tests/oracles/heap_queue.py``, and the frozen
seed kernel in ``tests/oracles/seed_kernel.py`` through randomized
workloads and asserts bit-identical firing sequences.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable

from repro.errors import SimulationError

# Dead-entry reclamation policy (see _should_reclaim). The large-heap
# clause keeps the original heap kernel's behaviour: at least
# _COMPACT_MIN_DEAD cancelled entries and more dead than live. The
# small-heap clause closes the latent gap where a tiny live set
# (live << 64) could carry up to 63 dead entries forever — a bloat
# factor the old `dead >= 64` floor never triggered on.
_COMPACT_MIN_DEAD = 64
_COMPACT_SMALL_MIN = 8


def _should_reclaim(dead: int, live: int) -> bool:
    """Explicit dead-entry reclamation policy.

    Compact the heap when cancelled entries are both numerous enough to
    amortize an O(n) sweep and dominate the live population:

    - large-population clause: ``dead >= _COMPACT_MIN_DEAD`` and dead
      strictly outnumber live (the original ``dead*2 > len(heap)``
      check, written in live/dead terms);
    - small-population clause: for tiny live sets, reclaim once dead
      reach ``_COMPACT_SMALL_MIN`` and exceed 4x the live count, so a
      handful of live events can no longer pin ~64 dead ones
      indefinitely under sustained cancel churn.

    Every reclamation removes at least half the stored entries, so the
    O(live + dead) sweep is amortized O(1) per cancellation.
    """
    return (dead >= _COMPACT_MIN_DEAD and dead > live) or (
        dead >= _COMPACT_SMALL_MIN and dead > 4 * live
    )


class Event:
    """A scheduled callback at a simulated time.

    Events are ordered by ``(time, seq)`` where ``seq`` is assigned
    monotonically at scheduling time, making simultaneous events fire in
    FIFO order — the property that makes simulations deterministic.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple = ()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        # Direct time-then-seq comparison: no tuple allocation per
        # comparison (this runs O(log n) times per heap operation).
        return self.time < other.time or (
            self.time == other.time and self.seq < other.seq
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6g} seq={self.seq}{state}>"


class EventQueue:
    """Binary heap + same-instant ready lane.

    `Simulator` accepts any queue implementing this surface (the
    differential tests pass the frozen heap kernel).
    """

    __slots__ = ("_heap", "_dead", "_ready", "_seq", "compactions",
                 "cancellations")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._dead = 0          # cancelled events still sitting in the heap
        self._ready: deque[Event] = deque()
        self._seq = 0
        self.compactions = 0
        self.cancellations = 0      # caller-cancelled events (note_cancelled)

    # -- scheduling ----------------------------------------------------------
    def push(self, time: float, callback: Callable, args: tuple = ()) -> Event:
        """Create and enqueue an event; returns it (for cancellation)."""
        event = Event(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def push_ready(self, time: float, callback: Callable, args: tuple) -> None:
        """Same-instant fast path: enqueue a kernel-internal callback for
        the *current* simulated instant without touching the heap.

        Callers must pass ``time == now``. Appends are in seq order and
        the clock only moves forward, so the lane stays sorted by
        (time, seq) and a head-to-head merge at pop reproduces exact
        FIFO order.
        """
        self._ready.append(Event(time, self._seq, callback, args))
        self._seq += 1

    def push_back(self, event: Event) -> None:
        """Reinsert a popped-but-undispatched event (``run`` overshot
        ``until``); seq is preserved so ordering is unaffected."""
        heapq.heappush(self._heap, event)

    # -- dequeue -------------------------------------------------------------
    def pop(self) -> Event:
        """Pop the earliest non-cancelled event.

        Raises :class:`SimulationError` when no live event remains.
        """
        event = self._pop_or_none()
        if event is None:
            raise SimulationError("pop from empty event queue")
        return event

    def _pop_or_none(self) -> Event | None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        ready = self._ready
        if ready:
            if not heap or not (heap[0] < ready[0]):
                return ready.popleft()
            return heapq.heappop(heap)
        if heap:
            return heapq.heappop(heap)
        return None

    # -- lifecycle -----------------------------------------------------------
    def note_cancelled(self) -> None:
        """Bookkeeping hook: caller cancelled an event it got from push.

        Triggers heap compaction per :func:`_should_reclaim` — the heap
        is rebuilt from live events only. Ordering is untouched: pop
        order is the total order (time, seq) regardless of the heap's
        internal arrangement.
        """
        self.cancellations += 1
        self._dead += 1
        heap = self._heap
        if _should_reclaim(self._dead, len(heap) - self._dead):
            self._heap = [event for event in heap if not event.cancelled]
            heapq.heapify(self._heap)
            self._dead = 0
            self.compactions += 1

    # -- introspection -------------------------------------------------------
    def emit_metrics(self, registry) -> None:
        registry.emit((
            # every push and ready-lane append stamps one seq; the help
            # text is pinned by results/metrics_e13.json
            ("kernel_events_pushed_total",
             "Events enqueued (push, pooled, ready lane)", self._seq),
            ("kernel_events_cancelled_total", "Caller-cancelled events",
             self.cancellations),
            ("kernel_reclaims_total",
             "Dead-entry reclamations (compactions/sweeps)", self.compactions),
        ))

    @property
    def heap_size(self) -> int:
        """Raw heap entries, live + cancelled (compaction bounds this)."""
        return len(self._heap)

    def __len__(self) -> int:
        return len(self._heap) - self._dead + len(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready) or len(self._heap) > self._dead
