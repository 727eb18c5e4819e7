"""Event and event-queue primitives for the discrete-event kernel.

The queue is the hottest structure in the whole system — every timeout,
wakeup, and watchdog in every experiment passes through it. Its external
contract: global ``(time, seq)`` FIFO order, lazy O(1) cancellation, a
bounded free list for kernel-internal events, and a same-instant ready
lane.

:class:`CalendarQueue` (aliased as ``EventQueue``) is an array-backed
calendar queue. Future events land in fixed-width time buckets by one
multiply + truncate (O(1) amortized insert, no comparisons); a bucket
is sorted once, in C, when the clock reaches it. Events beyond the
bucketed window go to an unsorted far-future list (append-only — no
ordering work until the window advances over them), late arrivals at
or before the current bucket go to a small spill heap, and the window
re-sizes itself (bucket count from the live population, bucket width
from the observed pop rate) whenever the population outgrows it or the
window is exhausted. Cancelled events are reclaimed by first sweeping
the far list in place and only rebuilding the bucketed window if the
in-window dead still dominate — the calendar's equivalent of heap
compaction.

Correctness story: bucket assignment is ``trunc((time - base) *
inv_width)``, a monotone non-decreasing function of ``time`` under a
fixed regime (float subtract and multiply-by-positive are monotone, as
is truncation), so an earlier event can never land in a later bucket —
and equal times always share a bucket, where exact ``(time, seq)``
comparison decides. Pop therefore only ever needs to merge three
exactly-ordered sources: the sorted remainder of the current bucket,
the spill heap (late arrivals at or before the current bucket), and
the ready lane. The differential suite in
``tests/simcore/test_kernel_differential.py`` drives the calendar queue,
the frozen heap kernel in ``tests/oracles/heap_queue.py``, and a frozen
copy of the seed kernel through randomized workloads and asserts
bit-identical firing sequences.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable
from operator import attrgetter

from repro.errors import SimulationError

# Dead-entry reclamation policy (the frozen heap kernel in the tests
# shares it; see _should_reclaim). The large-heap clause keeps the original PR-4
# behaviour: at least _COMPACT_MIN_DEAD cancelled entries and more dead
# than live. The small-heap clause closes the latent gap where a tiny
# live set (live << 64) could carry up to 63 dead entries forever — a
# bloat factor the old `dead >= 64` floor never triggered on.
_COMPACT_MIN_DEAD = 64
_COMPACT_SMALL_MIN = 8

# Free-list cap: bounds worst-case retained garbage, covers the common
# steady-state of a few hundred in-flight wakeups.
_POOL_MAX = 512

# Calendar-queue sizing bounds: bucket count is the power of two
# nearest the live population, clamped to this range.
_MIN_BUCKETS = 16
_MAX_BUCKETS = 1 << 15

# Rate-sized windows span this many expected pops per bucket. Wider
# than the classic calendar-queue target of ~1: bucket sorts run in C
# so modest occupancy is nearly free, while every extra factor here
# divides the window-advance frequency — and each advance pays one
# filter-and-reclassify pass over the whole far-future list.
_SPAN_SLACK = 8.0

# C-speed (time, seq) sort key for bucket sorts.
_TIME_SEQ = attrgetter("time", "seq")


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


class CalendarQueue(_QueueBase):
    """Array-backed calendar queue: bucketed near-future event lists, a
    far-future append list, adaptive window sizing, and the ready lane.

    Layout (all times under one *regime* ``(base, width, n_buckets)``):

    - ``_buckets[i]`` holds unsorted events with
      ``trunc((t - base) / width) == i`` — appended in O(1), sorted in
      one C call when the consuming cursor arrives;
    - ``_cur_list``/``_cur_ptr`` is the sorted remainder of the bucket
      currently being drained (``_cur``); late arrivals that map at or
      before ``_cur`` go to the small ``_spill`` heap instead;
    - ``_far`` is a plain *unsorted* list of events beyond the window:
      insert is one append and cancellation stays a flag — the
      far-future watchdog pattern (armed 100s of seconds out, ~96%
      cancelled long before firing) costs O(1) per arm/cancel, and the
      dead are harvested in one C-speed filter pass at the next window
      advance instead of ever entering a comparison structure.

    The window adapts on every advance/rebuild: bucket count tracks
    the live population and bucket width tracks the observed *pop
    rate* (events per simulated second, EWMA), so one bucket holds
    ~one hot event and near-term inserts land by arithmetic, not by
    comparisons. When no rate is known yet the width falls back to an
    order statistic of pending times (the window covers about one
    bucket-count's worth of the soonest events).

    Cancellation is O(1) (flag + counters); cancelled events are
    dropped lazily at the heads and reclaimed wholesale when dead
    entries dominate (:func:`_should_reclaim`), by the same gather +
    re-layout that re-sizes the window.
    """

    __slots__ = (
        "_buckets", "_cur", "_cur_list", "_cur_ptr", "_spill", "_far",
        "_base", "_width", "_inv_width", "_nb", "_nb_f", "_grow_at",
        "_live", "_dead", "_rate", "_mark_t", "_mark_pops", "_last_pop_t",
        "_head_bound", "rebuilds", "advances",
    )

    def __init__(self) -> None:
        super().__init__()
        self._live = 0          # stored, non-cancelled (ready lane excluded)
        self._dead = 0          # cancelled events still stored
        self.rebuilds = 0       # full gather + re-layout count
        self.advances = 0       # window-advance (far-list split) count
        self._spill: list[Event] = []
        self._far: list[Event] = []
        self._cur_list: list[Event] = []
        self._cur_ptr = 0
        self._rate: float | None = None   # EWMA pops per simulated second
        self._mark_t = 0.0
        self._mark_pops = 0
        self._last_pop_t = float("inf")   # becomes a clock lower bound on first pop
        # Lower bound on the earliest stored event's time. Inserts move
        # it down in O(1); settling refreshes it exactly. It can go
        # stale-low (a cancelled min, a popped min) — only ever costing
        # an unnecessary settle, never a wrong order.
        self._head_bound = float("inf")
        self._buckets: list[list[Event]] = []
        self._set_regime(0.0, 1.0, _MIN_BUCKETS)

    # -- regime management ---------------------------------------------------
    def _set_regime(self, base: float, width: float, nb: int) -> None:
        """Install a new (base, width, bucket-count) regime.

        Callers guarantee every bucket list is empty at this point, so
        the bucket array is reused when the count is unchanged.
        """
        self._base = base
        self._width = width
        self._inv_width = 1.0 / width
        self._nb = nb
        self._nb_f = float(nb)
        if len(self._buckets) != nb:
            self._buckets = [[] for _ in range(nb)]
        self._cur = -1          # no bucket consumed yet
        self._grow_at = nb * 2 if nb < _MAX_BUCKETS else (1 << 62)
        self._mark_t = base
        self._mark_pops = 0

    def _reseed(self, time: float) -> None:
        """Re-anchor an empty calendar at ``time`` (keeps nb/width)."""
        self._base = time
        self._cur = -1
        # buckets are empty; cur_list/spill/far are empty too
        self._cur_list = []
        self._cur_ptr = 0
        self._mark_t = time
        self._mark_pops = 0

    def _note_rate(self) -> None:
        """Fold pops since the last layout into the pop-rate EWMA."""
        pops = self._mark_pops
        if pops >= 32:
            elapsed = self._last_pop_t - self._mark_t
            if elapsed > 0.0:
                r = pops / elapsed
                self._rate = r if self._rate is None else (self._rate + r) * 0.5

    def _layout(self, events: list[Event], must_cover: bool = False) -> None:
        """Distribute ``events`` (all live, unsorted) under a freshly
        sized regime. Every other storage structure must be empty.

        ``must_cover`` forces the window to contain the earliest
        pending event — required on the window-advance path, where an
        empty window would advance again forever. Reclamation/growth
        rebuilds leave it off: there the pending set may momentarily be
        far-future-only (a cancel burst arriving via the ready lane),
        and a window sized to *cover* it would be so coarse that the
        imminent hot flow degenerates into the spill heap.

        Ordering is untouched: pop order is the total order
        ``(time, seq)`` regardless of which bucket an event sits in,
        and the layout happens atomically between pops.
        """
        self._note_rate()
        self._dead = 0
        self._live = n = len(events)
        self._spill = []
        self._far = []
        self._cur_list = []
        self._cur_ptr = 0
        if n == 0:
            self._head_bound = float("inf")
            self._set_regime(self._base, self._width, self._nb)
            return
        nb = 1 << (n - 1).bit_length()
        if nb < _MIN_BUCKETS:
            nb = _MIN_BUCKETS
        elif nb > _MAX_BUCKETS:
            nb = _MAX_BUCKETS
        times = [e.time for e in events]
        t_min = min(times)
        # Anchor the window at the last popped time, not the earliest
        # *pending* time: pops are monotone, so it lower-bounds every
        # future insert as well. Anchoring at min(pending) instead is a
        # trap — a layout can run at an instant when only far-future
        # events are stored (e.g. a cancel burst from the ready lane),
        # and a base in the future sends the entire subsequent hot flow
        # through the spill heap.
        base = self._last_pop_t
        if t_min < base:
            base = t_min
        span = 0.0
        rate = self._rate
        if rate is not None and rate > 0.0:
            # Window sized to hold ~nb * _SPAN_SLACK pops at the
            # observed rate (a few hot events per bucket). Rejected
            # when the earliest pending event would fall outside it
            # (rate badly overestimated, e.g. after a same-instant
            # burst, or a pending-only-far-future lull): an empty
            # window would just advance again immediately.
            span = _SPAN_SLACK * nb / rate
            end = base + span
            if must_cover and not (t_min < end):
                span = 0.0
            elif not (end > base):          # rate overflow/underflow
                span = 0.0
        if span <= 0.0:
            # Order-statistic fallback: window wide enough to hold the
            # ~nb soonest pending events (always covers t_min).
            times.sort()
            k = nb - 1 if nb - 1 < n else n - 1
            span = (times[k] - base) * 1.25
        width = span / nb
        if width <= 0.0:
            width = 1.0
        self._head_bound = t_min
        self._set_regime(base, width, nb)
        inv = self._inv_width
        nb_f = self._nb_f
        buckets = self._buckets
        far = self._far
        for e in events:
            diff = (e.time - base) * inv
            if diff < nb_f:
                buckets[int(diff)].append(e)
            else:
                far.append(e)

    def _advance_window(self) -> None:
        """Window exhausted: harvest the far list's dead and lay the
        survivors out under the next window."""
        self.advances += 1
        live = [e for e in self._far if not e.cancelled]
        self._layout(live, must_cover=True)

    def _rebuild(self) -> None:
        """Full gather: collect every stored event, drop the cancelled,
        and re-layout. Triggered by population growth past the bucket
        budget and by dead-entry reclamation (:func:`_should_reclaim`)."""
        self.rebuilds += 1
        events: list[Event] = []
        append = events.append
        lst = self._cur_list
        for k in range(self._cur_ptr, len(lst)):
            e = lst[k]
            if not e.cancelled:
                append(e)
        for e in self._spill:
            if not e.cancelled:
                append(e)
        for bucket in self._buckets:
            if bucket:
                for e in bucket:
                    if not e.cancelled:
                        append(e)
                bucket.clear()
        for e in self._far:
            if not e.cancelled:
                append(e)
        self._layout(events)

    # -- scheduling ----------------------------------------------------------
    def _insert(self, event: Event) -> None:
        live = self._live
        if live == 0 and self._dead == 0:
            self._reseed(event.time)
        time = event.time
        if time < self._head_bound:
            self._head_bound = time
        diff = (time - self._base) * self._inv_width
        if diff < self._nb_f:
            i = int(diff)
            if i > self._cur:
                self._buckets[i].append(event)
            elif i < 0:
                # below the regime base (truncation is not monotone
                # for negative diffs): exact spill heap
                heapq.heappush(self._spill, event)
            else:
                # maps at/before the consuming cursor
                lst = self._cur_list
                ptr = self._cur_ptr
                if ptr < len(lst) and lst[ptr] < event:
                    # fires after the current head: small spill heap
                    heapq.heappush(self._spill, event)
                else:
                    # Rewind: the event precedes the whole consuming
                    # front (typical after the cursor raced ahead to a
                    # far-future bucket during a same-instant burst).
                    # Push the sorted remainder back into its bucket
                    # and restart consumption at the event's bucket.
                    buckets = self._buckets
                    if ptr < len(lst):
                        buckets[self._cur] = lst[ptr:]
                    self._cur_list = []
                    self._cur_ptr = 0
                    cur = self._cur = i - 1
                    buckets[i].append(event)
                    spill = self._spill
                    if spill:
                        # Spill entries mapping past the rewound cursor
                        # go back to their buckets — settle's shortcut
                        # (spill head precedes every un-pulled bucket)
                        # must keep holding.
                        base = self._base
                        inv = self._inv_width
                        keep = []
                        for s in spill:
                            j = int((s.time - base) * inv)
                            if j > cur:
                                buckets[j].append(s)
                            else:
                                keep.append(s)
                        if keep:
                            heapq.heapify(keep)
                        self._spill = keep
        else:
            self._far.append(event)
        self._live = live + 1
        if live >= self._grow_at:
            self._rebuild()

    def push(self, time: float, callback: Callable, args: tuple = ()) -> Event:
        """Create and enqueue an event; returns it (for cancellation).

        The returned event escapes to the caller, so it is never drawn
        from or released to the free list.

        The classification arithmetic is inlined here (and in
        :meth:`push_pooled`) rather than delegated to :meth:`_insert`:
        these two are the hottest calls in the entire system and the
        call frame is measurable at million-event scale. `_insert`
        stays the canonical single implementation for the rare paths.
        """
        event = Event(time, self._seq, callback, args)
        self._seq += 1
        live = self._live
        if time < self._head_bound:
            self._head_bound = time
        diff = (time - self._base) * self._inv_width
        if diff < self._nb_f:
            i = int(diff)
            if i > self._cur and live:
                self._buckets[i].append(event)
                self._live = live + 1
                if live >= self._grow_at:
                    self._rebuild()
                return event
        elif live:
            self._far.append(event)
            self._live = live + 1
            if live >= self._grow_at:
                self._rebuild()
            return event
        self._live = live
        self._insert(event)
        return event

    def push_pooled(self, time: float, callback: Callable, args: tuple) -> None:
        """Enqueue a kernel-internal event (reference never escapes,
        so it may come from — and return to — the free list)."""
        event = self._make_pooled(time, callback, args)
        live = self._live
        if time < self._head_bound:
            self._head_bound = time
        diff = (time - self._base) * self._inv_width
        if diff < self._nb_f:
            i = int(diff)
            if i > self._cur and live:
                self._buckets[i].append(event)
                self._live = live + 1
                if live >= self._grow_at:
                    self._rebuild()
                return
        elif live:
            self._far.append(event)
            self._live = live + 1
            if live >= self._grow_at:
                self._rebuild()
            return
        self._live = live
        self._insert(event)

    def push_back(self, event: Event) -> None:
        """Reinsert a popped-but-undispatched event (``run`` overshot
        ``until``); seq is preserved so ordering is unaffected."""
        self._insert(event)

    # -- dequeue -------------------------------------------------------------
    def _settle(self) -> Event | None:
        """Advance until the earliest stored live event is at the head
        of ``_cur_list`` or ``_spill`` and return it (without removing).

        Cancelled heads are discarded along the way; an exhausted
        window refills itself from the far list via a window advance.
        """
        while True:
            lst = self._cur_list
            ptr = self._cur_ptr
            n = len(lst)
            while ptr < n and lst[ptr].cancelled:
                ptr += 1
                self._dead -= 1
            self._cur_ptr = ptr
            spill = self._spill
            while spill and spill[0].cancelled:
                heapq.heappop(spill)
                self._dead -= 1
            if ptr < n:
                a = lst[ptr]
                if spill:
                    b = spill[0]
                    if b < a:
                        a = b
                self._head_bound = a.time
                return a
            if spill:
                a = spill[0]
                self._head_bound = a.time
                return a
            # current bucket exhausted: advance to the next non-empty one
            cur = self._cur + 1
            buckets = self._buckets
            nb = self._nb
            while cur < nb and not buckets[cur]:
                cur += 1
            if cur < nb:
                raw = buckets[cur]
                buckets[cur] = []
                self._cur = cur
                live = [e for e in raw if not e.cancelled]
                self._dead -= len(raw) - len(live)
                live.sort(key=_TIME_SEQ)
                self._cur_list = live
                self._cur_ptr = 0
                continue
            # window exhausted
            self._cur = nb - 1
            if self._far:
                self._advance_window()
                continue
            self._head_bound = float("inf")
            return None

    def _pop_or_none(self) -> Event | None:
        # Fast path: live head of the current sorted bucket, nothing in
        # the spill heap or the ready lane to merge against.
        lst = self._cur_list
        ptr = self._cur_ptr
        if ptr < len(lst):
            event = lst[ptr]
            if not (event.cancelled or self._spill or self._ready):
                self._cur_ptr = ptr + 1
                self._live -= 1
                self._mark_pops += 1
                self._last_pop_t = event.time
                return event
        ready = self._ready
        if ready:
            # Ready-lane fast path: when every stored event provably
            # fires later, pop the lane without settling — crucially
            # this keeps the cursor parked during same-instant bursts
            # instead of racing it ahead to a far-future bucket that
            # subsequent inserts would then have to spill around.
            head = ready[0]
            if self._live == 0 or self._head_bound > head.time:
                return ready.popleft()
            cand = self._settle()
            if cand is None or not (cand < head):
                return ready.popleft()
        else:
            cand = self._settle()
            if cand is None:
                return None
        lst = self._cur_list
        ptr = self._cur_ptr
        if ptr < len(lst) and lst[ptr] is cand:
            self._cur_ptr = ptr + 1
        else:
            heapq.heappop(self._spill)
        self._live -= 1
        self._mark_pops += 1
        self._last_pop_t = cand.time
        return cand

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or None when empty."""
        cand = self._settle()
        if self._ready:
            ready_time = self._ready[0].time
            if cand is not None and cand.time < ready_time:
                return cand.time
            return ready_time
        return cand.time if cand is not None else None

    # -- lifecycle -----------------------------------------------------------
    def note_cancelled(self) -> None:
        """Bookkeeping hook: caller cancelled an event it got from push.

        Triggers dead-entry reclamation per :func:`_should_reclaim` —
        the calendar is rebuilt from live events only (the equivalent
        of the heap kernel's compaction).
        """
        self.cancellations += 1
        dead = self._dead = self._dead + 1
        live = self._live = self._live - 1
        # _should_reclaim, inlined: this runs once per cancellation.
        if (dead >= _COMPACT_MIN_DEAD and dead > live) or (
            dead >= _COMPACT_SMALL_MIN and dead > 4 * live
        ):
            # Cheap first pass: under watchdog churn the dead are
            # overwhelmingly far-future cancellations, so sweep the
            # unsorted far list in place (one filter pass, no regime
            # change, nothing else touched). Only when the dead sit
            # inside the window does this fall through to the full
            # gather + re-layout.
            far = self._far
            if far:
                kept = [e for e in far if not e.cancelled]
                removed = len(far) - len(kept)
                if removed:
                    self._far = kept
                    dead = self._dead = dead - removed
            if (dead >= _COMPACT_MIN_DEAD and dead > live) or (
                dead >= _COMPACT_SMALL_MIN and dead > 4 * live
            ):
                self._rebuild()
            self.compactions += 1

    # -- introspection -------------------------------------------------------
    def emit_metrics(self, registry) -> None:
        super().emit_metrics(registry)
        registry.emit((
            ("kernel_calendar_rebuilds_total",
             "Calendar-queue full gather + re-layout passes", self.rebuilds),
            ("kernel_calendar_advances_total",
             "Calendar-queue window advances", self.advances),
        ))

    @property
    def heap_size(self) -> int:
        """Stored entries, live + cancelled (reclamation bounds this)."""
        return self._live + self._dead

    def __len__(self) -> int:
        return self._live + len(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready) or self._live > 0


# The kernel default. `Simulator` accepts any queue implementing this
# surface (the differential tests pass the frozen heap kernel).
EventQueue = CalendarQueue
