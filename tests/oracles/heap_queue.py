"""Frozen binary-heap event queue: the calendar queue's reference kernel.

This is the heap kernel that preceded :class:`~repro.simcore.event.CalendarQueue`
(allocation-free compare, lazy-cancel compaction), kept outside the
package as the baseline ``benchmarks/bench_kernel.py`` measures the
calendar queue against and as one side of the kernel differential
tests. It implements the same queue surface, so
``Simulator(queue=HeapEventQueue())`` runs any simulation on it.

Do not "improve" this class: its value is staying what shipped.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.simcore.event import Event, _QueueBase, _should_reclaim


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
