"""Event-driven flow network bound to a topology.

:class:`FlowNetwork` turns ``transfer(src, dst, size)`` calls into fluid
flows. Whenever the flow set changes, per-flow rates are re-solved
max-min fairly (:func:`~repro.netsim.fairness.max_min_fair_rates`) and
each flow whose rate changed gets a new drain time. A flow completes its
*transmission* when its byte count drains; the receiver's completion
signal fires one path-latency later (store-and-forward pipeline tail).

Five structural optimizations keep busy networks cheap:

- **Per-column block.** Each live flow owns a column of one 3-row
  block: its current rate, remaining bytes and route slot. The block is
  preallocated and grown geometrically; a column is written on
  ``transfer()`` and marked dead on drain. Dead columns are compacted
  away in one order-preserving pass before the block is next read (in
  practice once per rate solve, however many flows drained at that
  instant), a run of live columns moving in one slice. Insertion order
  is kept — rather than swapping in the last column — because the drain
  timer drains a ``(due, batch)`` pair's flows in column order, and
  that order must be the order the flows were started in.
- **Same-instant coalescing.** Flow arrivals/departures/brownouts mark
  the network dirty and schedule one deferred solve at the current
  instant instead of solving inline, so a burst of k flow events at one
  simulated instant (e.g. ``AllOf`` staging of k inputs) triggers one
  rate solve instead of k. No simulated time passes between the burst
  and the solve, so observable dynamics are unchanged.
- **One drain timer.** A solve schedules no per-flow events. It writes
  each changed flow's absolute drain time into ``_col_due`` and one
  kernel seq, reserved for the whole solve, into ``_col_batch``; flows
  whose rate did not change keep both. One kernel event (``_timer``)
  sits at the smallest ``(due, batch)`` pair and, when it fires, drains
  that pair's flows in column order and re-arms. This is exact: one
  solve's per-flow drain events used to take consecutive seqs in column
  order, starting at the seq now reserved, with nothing pushed between
  them, so ``(due, batch, column)`` gives every drain the place in the
  kernel's ``(time, seq)`` order its own event had. A solve costs at
  most one cancellation instead of one per changed flow.
- **One rate per route.** Under max-min fairness, flows over the same
  links always share one rate, so rates are solved over routes, not
  flows. A route table maps each path's hops to its route, the sorted
  ids of its links (so a path and its reverse share one); a route with
  live flows also holds a slot, a column of a links x slots 0/1 matrix,
  and a count of those flows. A solve hands the solver the live routes'
  columns with their counts as ``weights``, and each flow takes its
  route's rate. This is exact:
  every link's flow count and every level's frozen count is a small
  integer, exact in float64 in any summation order; the bottleneck
  choice reads only per-link shares; and all flows of a route freeze
  at the same level. So every rate, drain time and timer seq is
  bitwise what a per-flow solve gives. On the ``shuffle`` benchmark
  (seed 0) the solves' 415,460 flow columns collapse to 11,350 route
  columns. No state grows with links x flows.
- **One-route solves in closed form.** The k flows of a lone live route
  each get ``min(cap / k)`` over its links; that is computed directly
  in float arithmetic, with the bits the solver would produce, and so
  are the re-timed drains. Solves over several routes call the solver
  core, which does not re-validate capacities: they are validated
  where they are set (``Link`` and :meth:`FlowNetwork.set_link_bandwidth`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.continuum.topology import Topology
from repro.errors import NetworkError
from repro.netsim.fairness import progressive_fill
from repro.netsim.flow import Flow
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.simcore.process import Signal
from repro.simcore.simulation import Simulator

# Bytes below this are considered fully drained (float-accumulation guard).
_EPSILON_BYTES = 1e-6

# Initial column capacity of the per-column block and the route matrix.
_INITIAL_COLS = 16

# Relative rate change below which a flow's drain time is kept as-is.
_RATE_RTOL = 1e-12


class FlowNetwork:
    """Shared-bandwidth transfer service over a :class:`Topology`."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.topology = topology
        # transfer spans go to ``tracer``; an unbound one is bound to
        # this network's sim clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None and not tracer.bound:
            tracer.bind(lambda: sim.now)
        links = topology.links()
        self._link_index = {frozenset((a, b)): idx
                            for idx, (a, b, _) in enumerate(links)}
        self._capacities = [float(link.bandwidth_Bps)
                            for _, _, link in links]
        n_links = len(links)
        self._active: dict[int, Flow] = {}
        self._signals: dict[int, Signal] = {}
        self._spans: dict[int, object] = {}    # flow_id -> open tracer span
        self._last_update = sim.now
        self._next_id = 0
        # route table: every path seen (its hops) -> its route, the
        # sorted tuple of its link ids (a path and its reverse share
        # one). A route with live flows also holds a slot, column
        # _R[:, slot], with _slot_flows[slot] flows. A slot is zeroed
        # and freed when its last flow drains, so _R is as wide as the
        # most routes live at once. _col_slot maps each flow column to
        # its route's slot.
        self._route_of: dict[tuple, tuple[int, ...]] = {}
        self._slot_of: dict[tuple[int, ...], int] = {}
        self._slot_flows: list[int] = []
        self._free_slots: list[int] = []
        self._R = np.zeros((n_links, _INITIAL_COLS))
        # per-column state: column c < _n_active belongs to flow
        # _col_flow[c]; the block's rows hold its current rate,
        # remaining bytes and route slot, and parallel lists the
        # absolute drain time (inf while unsolved, starved or drained)
        # and the seq stamped by the solve that set it. Drained columns
        # wait in _dead (and are absent from _col_of) until _compact().
        self._bind_columns(np.zeros((3, _INITIAL_COLS)))
        self._col_flow: list[int] = []         # column -> flow_id
        self._col_due: list[float] = []
        self._col_batch: list[int] = []
        self._col_of: dict[int, int] = {}      # flow_id -> column
        self._n_active = 0
        self._dead: list[int] = []
        self._solve_pending = False
        self._timer = None                     # the one drain event
        # aggregate accounting
        self.flows_started = 0
        self.flows_completed = 0
        self.total_bytes_moved = 0.0
        self.total_transfer_cost_usd = 0.0
        self.rate_solves = 0                   # fair-share recompute count

    # -- public API -------------------------------------------------------------
    def transfer(self, src: str, dst: str, size_bytes: float) -> Signal:
        """Start moving ``size_bytes`` from ``src`` to ``dst``.

        Returns a :class:`Signal` that fires with the :class:`Flow`
        record when the last byte arrives. Local transfers (same site)
        complete at the current instant; zero-byte transfers pay the
        path's propagation latency only (an empty message still has to
        cross the wire).
        """
        if not math.isfinite(size_bytes) or size_bytes < 0:
            raise NetworkError(
                f"size_bytes must be non-negative and finite, got {size_bytes}"
            )
        path = self.topology.path_info(src, dst)
        flow = Flow(self._next_id, src, dst, float(size_bytes), path,
                    self.sim.now)
        self._next_id += 1
        signal = self.sim.signal()
        self._signals[flow.flow_id] = signal
        self.flows_started += 1
        tracer = self.tracer
        if tracer.enabled:
            self._spans[flow.flow_id] = tracer.begin(
                f"xfer:{src}->{dst}", "transfer", src=src, dst=dst,
                bytes=float(size_bytes), route=path.hops,
            )

        if path.hop_count == 0 or size_bytes == 0:
            # Local or empty: no bytes contend for bandwidth, so the
            # flow never joins the shared allocation. Latency-only
            # completion (zero for local paths, whose latency is 0).
            self.sim.schedule(path.latency_s, self._complete, flow)
            return signal

        self._drain_to_now()
        self._active[flow.flow_id] = flow
        self._add_column(flow)
        self._mark_dirty()
        return signal

    @property
    def active_flow_count(self) -> int:
        return len(self._active)

    def emit_metrics(self, registry) -> None:
        registry.emit((
            ("netsim_flows_started_total", "Flows opened on the network",
             self.flows_started),
            ("netsim_flows_completed_total", "Flows drained to completion",
             self.flows_completed),
            ("netsim_bytes_moved_total", "Bytes moved across all links",
             self.total_bytes_moved),
            ("netsim_rate_solves_total", "Max-min fair-share rate recomputes",
             self.rate_solves),
        ))

    def set_link_bandwidth(self, a: str, b: str, bandwidth_Bps: float) -> None:
        """Change a link's live capacity (brownouts, upgrades).

        In-flight flows are re-allocated immediately. Note this changes
        only the *network's* reality — planner estimates read the static
        topology and will be stale, which is exactly how real systems
        mis-plan during congestion events.
        """
        if not math.isfinite(bandwidth_Bps) or bandwidth_Bps <= 0:
            raise NetworkError(
                f"bandwidth_Bps must be positive and finite, got {bandwidth_Bps}"
            )
        idx = self._link_id(a, b)
        self._drain_to_now()
        self._capacities[idx] = float(bandwidth_Bps)
        self._mark_dirty()

    def link_bandwidth(self, a: str, b: str) -> float:
        """Current live capacity of link ``a--b``."""
        return self._capacities[self._link_id(a, b)]

    def _link_id(self, a: str, b: str) -> int:
        try:
            return self._link_index[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link {a!r}--{b!r}") from None

    # -- per-column state maintenance -------------------------------------------
    def _add_column(self, flow: Flow) -> None:
        n = self._n_active
        if n == self._cols.shape[1]:
            self._bind_columns(_widened(self._cols, 2 * n))
        hops = flow.path.hops
        route = self._route_of.get(hops)
        if route is None:
            route = self._route_of[hops] = tuple(sorted([
                self._link_index[frozenset(hop)]
                for hop in zip(hops, hops[1:])
            ]))
        slot = self._slot_of.get(route)
        if slot is None:
            slot = self._open_slot(route)
        self._slot_flows[slot] += 1
        self._col_slot[n] = slot
        self._col_rates[n] = 0.0
        self._col_remaining[n] = flow.size_bytes
        self._col_flow.append(flow.flow_id)
        self._col_due.append(math.inf)
        self._col_batch.append(0)
        self._col_of[flow.flow_id] = n
        self._n_active = n + 1

    def _open_slot(self, route: tuple[int, ...]) -> int:
        """Give ``route``, which has no live flow, a slot."""
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slot_flows)
            self._slot_flows.append(0)
            if slot == self._R.shape[1]:
                self._R = _widened(self._R, 2 * slot)
        self._R[route, slot] = 1.0
        self._slot_of[route] = slot
        return slot

    def _bind_columns(self, block: np.ndarray) -> None:
        """Make ``block`` the per-column state: one row each of rate,
        remaining bytes and route slot. One block lets :meth:`_compact`
        move a run of columns in one slice."""
        self._cols = block
        self._col_rates, self._col_remaining, self._col_slot = block

    def _compact(self) -> None:
        """Drop every dead column in one order-preserving pass.

        Each run of live columns between dead ones shifts left over the
        gap, so k drains at one instant cost one pass, not k. Insertion
        order is kept — instead of swapping in the last column — because
        :meth:`_due_cols` drains in column order: the flows of one
        ``(due, batch)`` pair must drain in the order they were started
        in.
        """
        dead = self._dead
        if not dead:
            return
        # same-instant drains fire in scheduling order, not column order
        dead.sort()
        n = self._n_active
        cols = self._cols
        dst = dead[0]
        for col, next_dead in zip(dead, dead[1:] + [n]):
            width = next_dead - col - 1
            if width:
                cols[:, dst:dst + width] = cols[:, col + 1:next_dead]
                dst += width
        col_flow, col_of = self._col_flow, self._col_of
        col_due, col_batch = self._col_due, self._col_batch
        for col in reversed(dead):
            del col_flow[col], col_due[col], col_batch[col]
        for c in range(dead[0], dst):
            col_of[col_flow[c]] = c
        dead.clear()
        self._n_active = dst

    # -- internals ------------------------------------------------------------------
    def _drain_to_now(self) -> None:
        """Advance remaining-byte counters to the current instant."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0:
            self._compact()
            n = self._n_active
            if n:
                rem = self._col_remaining[:n]
                np.maximum(rem - self._col_rates[:n] * elapsed, 0.0, out=rem)
        self._last_update = self.sim.now

    def _mark_dirty(self) -> None:
        """Defer one rate solve to the end of the current instant."""
        if not self._solve_pending:
            self._solve_pending = True
            self.sim._wakeup(0.0, self._solve_rates, ())

    def _solve_rates(self) -> None:
        """Re-solve rates; re-time the drains of flows whose rate changed."""
        self._solve_pending = False
        self.rate_solves += 1
        self._compact()
        n = self._n_active
        if n == 0:
            return
        old = self._col_rates[:n]
        if len(self._slot_of) == 1:
            # every column is on the lone route: one rate, and the same
            # float operations the array path below applies per column
            (route, slot), = self._slot_of.items()
            rate = _lone_route_rate(self._capacities, route,
                                    self._slot_flows[slot])
            changed = [col for col, was in enumerate(old.tolist())
                       if not (was > 0
                               and abs(rate - was) <= _RATE_RTOL * was)]
            old[:] = rate
            rates = [rate] * len(changed)
        else:
            # one column per live route, weighted by its flows (see "One
            # rate per route" above); slots not listed are never read
            live = list(self._slot_of.values())
            slot_flows = np.array(self._slot_flows, dtype=float)
            slot_rates = np.empty_like(slot_flows)
            slot_rates[live] = progressive_fill(
                np.array(self._capacities), self._R[:, live],
                slot_flows[live])
            new = slot_rates[self._col_slot[:n].astype(np.intp)]
            changed = (~((old > 0) & (np.abs(new - old) <= _RATE_RTOL * old))
                       ).nonzero()[0]
            old[:] = new
            rates = new[changed].tolist()
            changed = changed.tolist()
        if not changed:
            return
        # one seq for the whole solve (see "One drain timer" above)
        batch = self.sim._stamp()
        now = self.sim.now
        col_due, col_batch = self._col_due, self._col_batch
        for col, rate, left in zip(changed, rates,
                                   self._col_remaining[changed].tolist()):
            # `now + left / rate` is what `sim.schedule(left / rate)`
            # computes, so drain times keep a per-flow event's bits
            if left <= _EPSILON_BYTES:
                col_due[col] = now
            elif 0 < rate < math.inf:
                col_due[col] = now + left / rate
            else:
                col_due[col] = math.inf   # starved until the next change
            col_batch[col] = batch
        self._arm()

    def _due_cols(self, when: float) -> list[int]:
        """Columns whose drain time is ``when``, in column order."""
        due = self._col_due
        cols = []
        col = -1
        for _ in range(due.count(when)):
            col = due.index(when, col + 1)
            cols.append(col)
        return cols

    def _arm(self) -> None:
        """Keep the one drain timer at the smallest ``(due, batch)``."""
        when = min(self._col_due, default=math.inf)
        timer = self._timer
        batch = None
        if when != math.inf:
            col_batch = self._col_batch
            batch = min([col_batch[col] for col in self._due_cols(when)])
            if timer is not None and timer.time == when and timer.seq == batch:
                return
        if timer is not None:
            self.sim.cancel(timer)
        self._timer = (None if batch is None else
                       self.sim._schedule_stamped(when, batch, self._on_timer))

    def _on_timer(self) -> None:
        """Drain the timer's ``(due, batch)`` flows in column order."""
        timer, self._timer = self._timer, None
        col_flow, col_batch = self._col_flow, self._col_batch
        fids = [col_flow[col] for col in self._due_cols(timer.time)
                if col_batch[col] == timer.seq]
        for fid in fids:
            self._on_drained(fid)
        self._arm()

    def _on_drained(self, fid: int) -> None:
        """Transmission finished: remove from sharing, fire after latency."""
        self._drain_to_now()
        flow = self._active.pop(fid, None)
        if flow is None:
            return
        col = self._col_of.pop(fid)
        self._col_due[col] = math.inf
        self._dead.append(col)
        route = self._route_of[flow.path.hops]
        slot = self._slot_of[route]
        self._slot_flows[slot] -= 1
        if not self._slot_flows[slot]:
            self._R[:, slot] = 0.0
            del self._slot_of[route]
            self._free_slots.append(slot)
        self.sim.schedule(flow.path.latency_s, self._complete, flow)
        self._mark_dirty()

    def _complete(self, flow: Flow) -> None:
        flow.finish_time = self.sim.now
        self.flows_completed += 1
        self.total_bytes_moved += flow.size_bytes
        cost = flow.path.transfer_cost(flow.size_bytes)
        self.total_transfer_cost_usd += cost
        span = self._spans.pop(flow.flow_id, None)
        if span is not None:
            rate = flow.size_bytes / flow.duration if flow.duration > 0 else 0.0
            self.tracer.end(span, achieved_Bps=rate, cost_usd=cost)
        signal = self._signals.pop(flow.flow_id)
        signal.trigger(flow)


def _widened(arr: np.ndarray, cap: int) -> np.ndarray:
    """``arr`` with its columns extended by zeros to ``cap``."""
    out = np.zeros((arr.shape[0], cap))
    out[:, :arr.shape[1]] = arr
    return out


def _lone_route_rate(capacities: list[float], route: tuple[int, ...],
                     flows: int) -> float:
    """The rate ``max_min_fair_rates`` gives each of ``flows`` flows over
    the links ``route``, in closed form.

    They are frozen at the first level, ``min(cap / flows)`` over the
    route's links: one IEEE division per link and a minimum, the bits
    the solver's float64 arrays hold. A route with no links gets
    ``inf``. Capacities are validated where they are set.
    """
    return min([capacities[link] / flows for link in route],
               default=math.inf)
