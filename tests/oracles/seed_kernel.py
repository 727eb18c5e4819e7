"""Frozen seed kernel: the event loop the simulator shipped with, the
reference of ``tests/simcore/test_kernel_differential.py`` and of
``benchmarks/bench_kernel.py``.

Do not "improve" this module: its value is staying what shipped.
"""

from __future__ import annotations

import heapq

from repro.simcore.process import Process


class RefEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time, seq, callback, args=()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class RefEventQueue:
    """Binary heap with lazy cancellation — no compaction."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0

    def push(self, time, callback, args=()):
        event = RefEvent(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                self._live -= 1
                return event
        raise RuntimeError("pop from empty event queue")

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def note_cancelled(self):
        self._live -= 1

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0


class RefSimulator:
    """The seed event loop: peek_time + pop per iteration, all events
    through the heap. Exposes the same internal surface the process
    machinery uses (``_immediate``, ``_wakeup``, ``_queue``)."""

    def __init__(self, start_time=0.0):
        self._queue = RefEventQueue()
        self._now = float(start_time)
        self._processes_started = 0
        self.event_count = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback, *args):
        return self._queue.push(self._now + delay, callback, args)

    def cancel(self, event):
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    def _immediate(self, callback, arg):
        self._queue.push(self._now, callback, (arg,))

    def _wakeup(self, delay, callback, args):
        self._queue.push(self._now + delay, callback, args)

    def process(self, gen, name=""):
        proc = Process(gen, name=name)
        proc._bind(self)
        self._processes_started += 1
        return proc

    def step(self):
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        self.event_count += 1
        event.callback(*event.args)
        return True

    def run(self, until=None):
        while self._queue:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self._now = max(self._now, until)
                break
            self.step()
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now
