"""Frozen binary-heap event queue: a reference kernel for the tests.

This is the heap kernel that preceded the calendar queue
(allocation-free compare, lazy-cancel compaction, free list, ready
lane), kept outside the package as one side of the kernel differential
tests. Everything it uses from the kernel — ``Event``,
``_should_reclaim``, the shared queue base — is copied here verbatim, so
later changes to :mod:`repro.simcore.event` cannot move the reference.
It implements the same queue surface, so
``Simulator(queue=HeapEventQueue())`` runs any simulation on it.

Do not "improve" this module: its value is staying what shipped.
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

# Free-list cap: bounds worst-case retained garbage, covers the common
# steady-state of a few hundred in-flight wakeups.
_POOL_MAX = 512


def _should_reclaim(dead: int, live: int) -> bool:
    """Explicit dead-entry reclamation policy.

    Reclaim (heap compaction / calendar rebuild) when cancelled entries
    are both numerous enough to amortize an O(n) sweep and dominate the
    live population:

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

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "pooled")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple = ()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.pooled = False

    def cancel(self) -> None:
        """Mark the event dead; the queue skips it lazily on pop."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        # Direct time-then-seq comparison: no tuple allocation per
        # comparison (this runs O(log n) times per heap operation).
        return self.time < other.time or (
            self.time == other.time and self.seq < other.seq
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6g} seq={self.seq}{state}>"


class _QueueBase:
    """Shared machinery: seq stamping, ready lane, event free list."""

    __slots__ = ("_ready", "_seq", "_pool", "pool_reuses", "compactions",
                 "cancellations")

    def __init__(self) -> None:
        self._ready: deque[Event] = deque()
        self._seq = 0
        self._pool: list[Event] = []
        self.pool_reuses = 0
        self.compactions = 0
        self.cancellations = 0      # caller-cancelled events (note_cancelled)

    def emit_metrics(self, registry) -> None:
        registry.emit((
            # every push, push_pooled and ready-lane append stamps one seq
            ("kernel_events_pushed_total",
             "Events enqueued (push, pooled, ready lane)", self._seq),
            ("kernel_events_cancelled_total", "Caller-cancelled events",
             self.cancellations),
            ("kernel_reclaims_total",
             "Dead-entry reclamations (compactions/sweeps)", self.compactions),
            ("kernel_pool_reuses_total", "Events served from the free list",
             self.pool_reuses),
        ))

    def _make_pooled(self, time: float, callback: Callable, args: tuple) -> Event:
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = self._seq
            event.callback = callback
            event.args = args
            self.pool_reuses += 1
        else:
            event = Event(time, self._seq, callback, args)
            event.pooled = True
        self._seq += 1
        return event

    def push_ready(self, time: float, callback: Callable, args: tuple) -> None:
        """Same-instant fast path: enqueue a kernel-internal callback for
        the *current* simulated instant without touching the calendar.

        Callers must pass ``time == now``. Appends are in seq order and
        the clock only moves forward, so the lane stays sorted by
        (time, seq) and a head-to-head merge at pop reproduces exact
        FIFO order.
        """
        self._ready.append(self._make_pooled(time, callback, args))

    def recycle(self, event: Event) -> None:
        """Return a dispatched kernel-internal event to the free list.

        Caller-visible events (``pooled`` False) are ignored: a caller
        may still hold them, so reuse could alias a stale ``cancel``
        onto an unrelated future event.
        """
        if event.pooled and len(self._pool) < _POOL_MAX:
            event.callback = None   # drop refs so the pool pins nothing
            event.args = ()
            self._pool.append(event)

    def pop(self) -> Event:
        """Pop the earliest non-cancelled event.

        Raises :class:`SimulationError` when no live event remains.
        """
        event = self._pop_or_none()
        if event is None:
            raise SimulationError("pop from empty event queue")
        return event

    def _pop_or_none(self) -> Event | None:  # pragma: no cover - abstract
        raise NotImplementedError


class HeapEventQueue(_QueueBase):
    """Binary heap + same-instant lane (the pre-calendar kernel).

    Cancelled events stay in the heap until popped or compacted away;
    this keeps ``cancel`` O(1) while compaction bounds the transient
    growth from timeouts that rarely fire.
    """

    __slots__ = ("_heap", "_dead")

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[Event] = []
        self._dead = 0          # cancelled events still sitting in the heap

    # -- scheduling ----------------------------------------------------------
    def push(self, time: float, callback: Callable, args: tuple = ()) -> Event:
        """Create and enqueue an event; returns it (for cancellation)."""
        event = Event(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def push_pooled(self, time: float, callback: Callable, args: tuple) -> None:
        """Heap-enqueue a kernel-internal event."""
        heapq.heappush(self._heap, self._make_pooled(time, callback, args))

    def push_back(self, event: Event) -> None:
        """Reinsert a popped-but-undispatched event."""
        heapq.heappush(self._heap, event)

    # -- dequeue -------------------------------------------------------------
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

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or None when empty."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        if self._ready:
            ready_time = self._ready[0].time
            if heap and heap[0].time < ready_time:
                return heap[0].time
            return ready_time
        return heap[0].time if heap else None

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
    @property
    def heap_size(self) -> int:
        """Raw heap entries, live + cancelled (compaction bounds this)."""
        return len(self._heap)

    def __len__(self) -> int:
        return len(self._heap) - self._dead + len(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready) or len(self._heap) > self._dead
