"""Event-driven flow network bound to a topology.

:class:`FlowNetwork` turns ``transfer(src, dst, size)`` calls into fluid
flows. Whenever the flow set changes, per-flow rates are re-solved with
the configured allocator and each in-flight flow's completion event is
rescheduled. A flow completes its *transmission* when its byte count
drains; the receiver's completion signal fires one path-latency later
(store-and-forward pipeline tail).

Two structural optimizations keep busy networks cheap:

- **Persistent incidence matrix.** The link x flow 0/1 matrix the
  allocator consumes is maintained incrementally: preallocated and grown
  geometrically on the flow axis, a column is written on ``transfer()``
  and removed on drain by shifting the columns to its right one slot
  left (one vectorized copy). The shift — rather than a swap with the
  last column — preserves flow insertion order, which keeps weighted
  allocations (whose matvec summation order is order-sensitive in
  floating point) bit-identical to a freshly rebuilt matrix. A
  reallocation therefore does O(levels x links x flows) numpy work with
  zero per-event matrix construction.
- **Same-instant coalescing.** Flow arrivals/departures/brownouts mark
  the network dirty and schedule one deferred solve at the current
  instant instead of solving inline, so a burst of k flow events at one
  simulated instant (e.g. ``AllOf`` staging of k inputs) triggers one
  rate solve instead of k. No simulated time passes between the burst
  and the solve, so observable dynamics are unchanged. Drain events are
  rescheduled only for flows whose rate actually changed.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.continuum.topology import Topology
from repro.errors import NetworkError
from repro.netsim.fairness import max_min_fair_rates, weighted_max_min_rates
from repro.netsim.flow import Flow
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.simcore.process import Signal
from repro.simcore.simulation import Simulator

# Bytes below this are considered fully drained (float-accumulation guard).
_EPSILON_BYTES = 1e-6

# Initial column capacity of the persistent incidence matrix.
_INITIAL_COLS = 16

# Relative rate change below which a flow's drain event is kept as-is.
_RATE_RTOL = 1e-12


class FlowNetwork:
    """Shared-bandwidth transfer service over a :class:`Topology`."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        allocator: Callable = max_min_fair_rates,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.topology = topology
        self.allocator = allocator
        # transfer spans go to ``tracer``; an unbound one is bound to
        # this network's sim clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None and not tracer.bound:
            tracer.bind(lambda: sim.now)
        self._link_index: dict[frozenset, int] = {}
        self._capacities: list[float] = []
        for a, b, link in topology.links():
            self._link_index[frozenset((a, b))] = len(self._capacities)
            self._capacities.append(link.bandwidth_Bps)
        self._capacity_arr = np.asarray(self._capacities, dtype=float)
        n_links = len(self._capacities)
        self._active: dict[int, Flow] = {}
        self._events: dict[int, object] = {}   # flow_id -> scheduled event
        self._signals: dict[int, Signal] = {}
        self._spans: dict[int, object] = {}    # flow_id -> open tracer span
        self._last_update = sim.now
        self._next_id = 0
        # persistent incidence state: column c of _A[:, :_n_active]
        # belongs to flow _col_flow[c]; parallel per-column arrays hold
        # weight, current rate, and remaining bytes
        self._A = np.zeros((n_links, _INITIAL_COLS))
        self._col_w = np.ones(_INITIAL_COLS)
        self._col_rates = np.zeros(_INITIAL_COLS)
        self._col_remaining = np.zeros(_INITIAL_COLS)
        self._col_flow: list[int] = []         # column -> flow_id
        self._col_of: dict[int, int] = {}      # flow_id -> column
        self._n_active = 0
        self._solve_pending = False
        # aggregate accounting
        self.flows_started = 0
        self.flows_completed = 0
        self.total_bytes_moved = 0.0
        self.total_transfer_cost_usd = 0.0
        self.bytes_per_link = np.zeros(n_links)
        self.rate_solves = 0                   # fair-share recompute count

    # -- public API -------------------------------------------------------------
    def transfer(self, src: str, dst: str, size_bytes: float,
                 *, weight: float = 1.0) -> Signal:
        """Start moving ``size_bytes`` from ``src`` to ``dst``.

        Returns a :class:`Signal` that fires with the :class:`Flow`
        record when the last byte arrives. Local transfers (same site)
        complete at the current instant; zero-byte transfers pay the
        path's propagation latency only (an empty message still has to
        cross the wire). ``weight`` sets this flow's share under
        weighted fairness (background traffic uses < 1).
        """
        if size_bytes < 0:
            raise NetworkError(f"negative transfer size {size_bytes}")
        if weight <= 0:
            raise NetworkError(f"flow weight must be positive, got {weight}")
        path = self.topology.path_info(src, dst)
        flow = Flow(self._next_id, src, dst, float(size_bytes), path,
                    self.sim.now, weight=float(weight))
        self._next_id += 1
        signal = self.sim.signal()
        self._signals[flow.flow_id] = signal
        self.flows_started += 1
        tracer = self.tracer
        if tracer.enabled:
            self._spans[flow.flow_id] = tracer.begin(
                f"xfer:{src}->{dst}", "transfer", src=src, dst=dst,
                bytes=float(size_bytes), route=list(path.hops),
            )

        if path.hop_count == 0 or size_bytes == 0:
            # Local or empty: no bytes contend for bandwidth, so the
            # flow never joins the shared allocation. Latency-only
            # completion (zero for local paths, whose latency is 0).
            self.sim.schedule(path.latency_s, self._complete, flow)
            return signal

        link_ids = [
            self._link_index[frozenset((a, b))]
            for a, b in zip(path.hops, path.hops[1:])
        ]
        self._drain_to_now()
        self._active[flow.flow_id] = flow
        self._add_column(flow, link_ids)
        self._mark_dirty()
        return signal

    @property
    def active_flow_count(self) -> int:
        return len(self._active)

    def set_link_bandwidth(self, a: str, b: str, bandwidth_Bps: float) -> None:
        """Change a link's live capacity (brownouts, upgrades).

        In-flight flows are re-allocated immediately. Note this changes
        only the *network's* reality — planner estimates read the static
        topology and will be stale, which is exactly how real systems
        mis-plan during congestion events.
        """
        if bandwidth_Bps <= 0:
            raise NetworkError(
                f"bandwidth must be positive, got {bandwidth_Bps}"
            )
        try:
            idx = self._link_index[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link {a!r}--{b!r}") from None
        self._drain_to_now()
        self._capacities[idx] = float(bandwidth_Bps)
        self._capacity_arr[idx] = float(bandwidth_Bps)
        self._mark_dirty()

    def link_bandwidth(self, a: str, b: str) -> float:
        """Current live capacity of link ``a--b``."""
        try:
            idx = self._link_index[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link {a!r}--{b!r}") from None
        return self._capacities[idx]

    def utilization_of(self, a: str, b: str) -> float:
        """Current load fraction on link ``a--b`` (0 when idle)."""
        try:
            idx = self._link_index[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link {a!r}--{b!r}") from None
        n = self._n_active
        load = float(self._A[idx, :n] @ self._col_rates[:n])
        return load / self._capacities[idx]

    # -- incidence matrix maintenance ---------------------------------------------
    def _add_column(self, flow: Flow, link_ids: list[int]) -> None:
        n = self._n_active
        if n == self._A.shape[1]:
            self._grow(max(2 * n, _INITIAL_COLS))
        self._A[link_ids, n] = 1.0
        self._col_w[n] = flow.weight
        self._col_rates[n] = 0.0
        self._col_remaining[n] = flow.remaining_bytes
        self._col_flow.append(flow.flow_id)
        self._col_of[flow.flow_id] = n
        self._n_active = n + 1

    def _grow(self, new_cap: int) -> None:
        n_links, old_cap = self._A.shape
        A = np.zeros((n_links, new_cap))
        A[:, :old_cap] = self._A
        self._A = A
        for name in ("_col_w", "_col_rates", "_col_remaining"):
            old = getattr(self, name)
            arr = np.zeros(new_cap)
            arr[:old_cap] = old
            setattr(self, name, arr)

    def _remove_column(self, fid: int) -> None:
        """Free a drained flow's column, preserving column order.

        Later columns shift one slot left (vectorized copies); keeping
        insertion order — instead of swapping in the last column — makes
        the persistent matrix bit-identical to one rebuilt from scratch,
        so order-sensitive weighted matvecs produce identical rates.
        """
        col = self._col_of.pop(fid)
        n = self._n_active
        last = n - 1
        if col < last:
            self._A[:, col:last] = self._A[:, col + 1:n]
            self._col_w[col:last] = self._col_w[col + 1:n]
            self._col_rates[col:last] = self._col_rates[col + 1:n]
            self._col_remaining[col:last] = self._col_remaining[col + 1:n]
            del self._col_flow[col]
            for c in range(col, last):
                self._col_of[self._col_flow[c]] = c
        else:
            self._col_flow.pop()
        self._A[:, last] = 0.0
        self._n_active = last

    # -- internals ------------------------------------------------------------------
    def _drain_to_now(self) -> None:
        """Advance remaining-byte counters to the current instant."""
        elapsed = self.sim.now - self._last_update
        n = self._n_active
        if elapsed > 0 and n:
            moved = self._col_rates[:n] * elapsed
            rem = self._col_remaining[:n]
            np.maximum(rem - moved, 0.0, out=rem)
            self.bytes_per_link += self._A[:, :n] @ moved
            for col, fid in enumerate(self._col_flow):
                self._active[fid].remaining_bytes = rem[col]
        self._last_update = self.sim.now

    def _mark_dirty(self) -> None:
        """Defer one rate solve to the end of the current instant."""
        if not self._solve_pending:
            self._solve_pending = True
            self.sim.schedule(0.0, self._solve_rates)

    def _solve_rates(self) -> None:
        """Re-solve rates; reschedule drain events for changed flows."""
        self._solve_pending = False
        self.rate_solves += 1
        n = self._n_active
        if n == 0:
            return
        A = self._A[:, :n]
        w = self._col_w[:n]
        if self.allocator is max_min_fair_rates and np.any(w != 1.0):
            rates = weighted_max_min_rates(self._capacity_arr, A, w)
        else:
            rates = self.allocator(self._capacity_arr, A)
        old = self._col_rates[:n]
        unchanged = (old > 0) & (np.abs(rates - old) <= _RATE_RTOL * old)
        changed_cols = np.nonzero(~unchanged)[0]
        remaining = self._col_remaining[:n]
        for col in changed_cols:
            fid = self._col_flow[col]
            flow = self._active[fid]
            rate = float(rates[col])
            flow.rate_Bps = rate
            old_event = self._events.pop(fid, None)
            if old_event is not None:
                self.sim.cancel(old_event)
            if remaining[col] <= _EPSILON_BYTES:
                drain_in = 0.0
            elif rate <= 0 or not math.isfinite(rate):
                continue  # starved; will be rescheduled at next change
            else:
                # plain-float division keeps event timestamps (and thus
                # sim.now) native floats, as before the persistent matrix
                drain_in = float(remaining[col]) / rate
            self._events[fid] = self.sim.schedule(drain_in, self._on_drained, fid)
        self._col_rates[:n] = rates

    def _on_drained(self, fid: int) -> None:
        """Transmission finished: remove from sharing, fire after latency."""
        self._drain_to_now()
        flow = self._active.pop(fid, None)
        if flow is None:
            return
        self._events.pop(fid, None)
        self._remove_column(fid)
        flow.remaining_bytes = 0.0
        self.sim.schedule(flow.path.latency_s, self._complete, flow)
        self._mark_dirty()

    def _complete(self, flow: Flow) -> None:
        flow.finish_time = self.sim.now
        flow.rate_Bps = 0.0
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
