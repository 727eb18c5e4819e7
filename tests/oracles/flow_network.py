"""Frozen per-flow-drain network: a reference for the one-timer network.

This is :class:`repro.netsim.network.FlowNetwork` as it stood while
every rate solve cancelled and re-pushed one kernel drain event per
changed flow (``_events``), before all drains shared one kernel timer.
The :class:`Flow` record of that time (with ``rate_Bps`` and
``remaining_bytes``, which the network wrote) is copied in beside it.
It is kept outside the package as one side of the drain-order
differential in ``tests/netsim/test_drain_timer_differential.py``.

Do not "improve" this module: its value is staying what shipped.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.continuum.topology import PathInfo, Topology
from repro.errors import NetworkError
from repro.netsim.fairness import max_min_fair_rates
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.simcore.process import Signal
from repro.simcore.simulation import Simulator


@dataclass
class Flow:
    """One in-flight (or completed) transfer.

    The network writes ``rate_Bps`` and ``remaining_bytes`` together
    whenever a rate solve changes this flow's rate, so
    ``remaining_bytes`` is the byte count as of that solve (the live
    count is kept in the network's per-column arrays); it is set to 0
    when the last byte leaves. ``finish_time`` is set when the last
    byte arrives (transmission done + propagation latency).
    """

    flow_id: int
    src: str
    dst: str
    size_bytes: float
    path: PathInfo
    start_time: float
    remaining_bytes: float = field(init=False)
    rate_Bps: float = 0.0
    finish_time: float | None = None

    def __post_init__(self):
        self.remaining_bytes = float(self.size_bytes)

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def duration(self) -> float | None:
        """Completion time minus start, or None while in flight."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"{self.remaining_bytes:.3g}B left"
        return f"<Flow {self.flow_id} {self.src}->{self.dst} {state}>"


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
        # current rate and remaining bytes. Drained columns wait in
        # _dead (and are absent from _col_of) until _compact().
        self._A = np.zeros((n_links, _INITIAL_COLS))
        self._col_rates = np.zeros(_INITIAL_COLS)
        self._col_remaining = np.zeros(_INITIAL_COLS)
        self._col_flow: list[int] = []         # column -> flow_id
        self._col_of: dict[int, int] = {}      # flow_id -> column
        self._n_active = 0
        self._dead: list[int] = []
        self._solve_pending = False
        # aggregate accounting
        self.flows_started = 0
        self.flows_completed = 0
        self.total_bytes_moved = 0.0
        self.total_transfer_cost_usd = 0.0
        self.bytes_per_link = np.zeros(n_links)
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
        self._compact()
        n = self._n_active
        load = float(self._A[idx, :n] @ self._col_rates[:n])
        return load / self._capacities[idx]

    # -- incidence matrix maintenance ---------------------------------------------
    def _add_column(self, flow: Flow, link_ids: list[int]) -> None:
        n = self._n_active
        if n == self._A.shape[1]:
            self._grow(max(2 * n, _INITIAL_COLS))
        self._A[link_ids, n] = 1.0
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
        for name in ("_col_rates", "_col_remaining"):
            old = getattr(self, name)
            arr = np.zeros(new_cap)
            arr[:old_cap] = old
            setattr(self, name, arr)

    def _compact(self) -> None:
        """Drop every dead column in one order-preserving pass.

        Each run of live columns between dead ones shifts left over the
        gap, so k drains at one instant cost one pass, not k. Keeping
        insertion order — instead of swapping in the last column — keeps
        the matrix bit-identical to one rebuilt from scratch, so the
        order-sensitive matvecs over it (``bytes_per_link`` in
        :meth:`_drain_to_now`, :meth:`utilization_of`) sum in the same
        order.
        """
        dead = self._dead
        if not dead:
            return
        # same-instant drains fire in scheduling order, not column order
        dead.sort()
        n = self._n_active
        arrays = (self._A, self._col_rates, self._col_remaining)
        dst = dead[0]
        for col, next_dead in zip(dead, dead[1:] + [n]):
            width = next_dead - col - 1
            if width:
                for arr in arrays:
                    arr[..., dst:dst + width] = arr[..., col + 1:next_dead]
                dst += width
        self._A[:, dst:n] = 0.0
        col_flow, col_of = self._col_flow, self._col_of
        for col in reversed(dead):
            del col_flow[col]
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
                moved = self._col_rates[:n] * elapsed
                rem = self._col_remaining[:n]
                np.maximum(rem - moved, 0.0, out=rem)
                self.bytes_per_link += self._A[:, :n] @ moved
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
        self._compact()
        n = self._n_active
        if n == 0:
            return
        rates = self.allocator(self._capacity_arr, self._A[:, :n])
        old = self._col_rates[:n]
        unchanged = (old > 0) & (np.abs(rates - old) <= _RATE_RTOL * old)
        changed_cols = np.nonzero(~unchanged)[0]
        remaining = self._col_remaining[:n]
        for col in changed_cols:
            fid = self._col_flow[col]
            flow = self._active[fid]
            rate = float(rates[col])
            left = float(remaining[col])
            flow.rate_Bps = rate
            flow.remaining_bytes = left
            old_event = self._events.pop(fid, None)
            if old_event is not None:
                self.sim.cancel(old_event)
            if left <= _EPSILON_BYTES:
                drain_in = 0.0
            elif rate <= 0 or not math.isfinite(rate):
                continue  # starved; will be rescheduled at next change
            else:
                # plain-float division keeps event timestamps (and thus
                # sim.now) native floats, as before the persistent matrix
                drain_in = left / rate
            self._events[fid] = self.sim.schedule(drain_in, self._on_drained, fid)
        self._col_rates[:n] = rates

    def _on_drained(self, fid: int) -> None:
        """Transmission finished: remove from sharing, fire after latency."""
        self._drain_to_now()
        flow = self._active.pop(fid, None)
        if flow is None:
            return
        self._events.pop(fid, None)
        self._dead.append(self._col_of.pop(fid))
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
