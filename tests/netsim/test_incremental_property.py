"""Property test: the incremental route state is indistinguishable
from a per-flow rebuild.

:class:`FlowNetwork` keeps one column per live flow (added on transfer,
marked dead on drain and compacted away in one order-preserving pass
before the next read), each pointing at its route's slot, a column of
the links x slots matrix ``_R``. Across randomized
start/finish/brownout sequences, at settled instants the route columns
read through the flows' slots must be *bit-identical* to the link x flow
incidence rebuilt from scratch with ``_incidence``; every slot's flow
count must match its live columns and every unused slot must be a zero
column; and the live rates must be bit-identical to a fresh per-flow
``max_min_fair_rates`` solve — not merely close: the route solve is an
optimization, never an approximation.
"""

import numpy as np
import pytest

from repro.continuum import Link, Site, Tier, Topology, geo_random_continuum
from repro.netsim.fairness import _incidence, max_min_fair_rates
from repro.netsim.network import FlowNetwork
from repro.simcore import Simulator


def _link_ids(net: FlowNetwork, flow) -> list[int]:
    hops = flow.path.hops
    return [net._link_index[frozenset(h)] for h in zip(hops, hops[1:])]


def _rebuilt_incidence(net: FlowNetwork) -> np.ndarray:
    """The incidence matrix built from scratch, in column order."""
    flow_links = [_link_ids(net, net._active[fid]) for fid in net._col_flow]
    return _incidence(len(net._capacities), flow_links)


def _check_settled_state(net: FlowNetwork, checked: list) -> None:
    if net._solve_pending:
        return  # mid-burst: rates are recomputed later this instant
    n = net._n_active
    if n == 0:
        return
    fresh_A = _rebuilt_incidence(net)
    slots = net._col_slot[:n].astype(np.intp)
    assert np.array_equal(net._R[:, slots], fresh_A)

    per_slot = np.bincount(slots, minlength=len(net._slot_flows))
    assert per_slot.tolist() == net._slot_flows
    unused = np.ones(net._R.shape[1], dtype=bool)
    unused[slots] = False
    assert not net._R[:, unused].any()
    assert (sorted(net._free_slots)
            == unused[:len(net._slot_flows)].nonzero()[0].tolist())

    fresh_rates = max_min_fair_rates(net._capacities, fresh_A)
    # bit-identical, not approx: the route solve is the per-flow solve
    assert np.array_equal(fresh_rates, net._col_rates[:n])
    checked.append(n)


@pytest.mark.parametrize("seed", range(8))
def test_incremental_matrix_matches_rebuild(seed):
    rng = np.random.default_rng(seed)
    topo = geo_random_continuum(8, seed=seed)
    names = topo.site_names
    sim = Simulator()
    net = FlowNetwork(sim, topo)

    for _ in range(40):
        a, b = rng.choice(len(names), size=2, replace=False)
        start = float(rng.uniform(0.0, 5.0))
        size = float(rng.uniform(1e6, 5e7))
        sim.schedule(
            start,
            lambda a=names[a], b=names[b], s=size: net.transfer(a, b, s),
        )

    links = topo.links()
    for _ in range(6):
        a, b, link = links[int(rng.integers(len(links)))]
        when = float(rng.uniform(0.0, 6.0))
        factor = float(rng.uniform(0.2, 1.0))
        sim.schedule(
            when,
            lambda a=a, b=b, bw=link.bandwidth_Bps * factor:
                net.set_link_bandwidth(a, b, bw),
        )

    checked = []
    for t in np.linspace(0.25, 8.0, 32):
        sim.schedule(float(t), _check_settled_state, net, checked)
    sim.run()

    assert checked, "no checkpoint observed active flows"
    assert net.active_flow_count == 0
    assert net.flows_started == net.flows_completed == 40


@pytest.mark.parametrize("seed", range(6))
def test_burst_drains_compact_to_rebuild(seed):
    """Equal-size flows on a shared path drain at one instant, so one
    compaction drops several dead columns. A ``transfer()`` started
    between a drain and its deferred solve lands after the dead
    columns; after every solve the route state and rates must still
    equal a from-scratch rebuild."""
    rng = np.random.default_rng(seed)
    topo = geo_random_continuum(8, seed=seed)
    names = topo.site_names
    sim = Simulator()
    net = FlowNetwork(sim, topo)

    for _ in range(6):
        a, b = rng.choice(len(names), size=2, replace=False)
        size = float(rng.uniform(1e6, 2e7))
        start = float(rng.uniform(0.0, 2.0))
        for _ in range(int(rng.integers(3, 7))):
            sim.schedule(
                start,
                lambda a=names[a], b=names[b], s=size: net.transfer(a, b, s),
            )

    dead_per_compaction = []
    checked = []
    restarts = []
    on_drained, solve_rates = net._on_drained, net._solve_rates

    def drained(fid):
        flow = net._active.get(fid)
        on_drained(fid)
        if flow is not None and len(restarts) < 3:
            restarts.append(net.transfer(flow.src, flow.dst, flow.size_bytes))

    def solve():
        dead_per_compaction.append(len(net._dead))
        solve_rates()
        assert not net._dead
        _check_settled_state(net, checked)

    net._on_drained = drained
    net._solve_rates = solve
    sim.run()

    assert max(dead_per_compaction) >= 3, "no multi-drain compaction"
    assert len(restarts) == 3 and checked
    assert net.active_flow_count == 0
    assert net.flows_started == net.flows_completed


def test_same_instant_drains_out_of_column_order():
    """Two drains at t=2 fire in the reverse of their column order: Y's
    event was scheduled at t=0, X's only at t=1, when V left X's link
    and X's rate doubled. The one compaction at t=2 must still shift the
    surviving flow Z into column 0."""
    topo = Topology("disjoint")
    for name in "abcdef":
        topo.add_site(Site(name, Tier.FOG))
    topo.add_link("a", "b", Link(0.0, 200.0))
    topo.add_link("c", "d", Link(0.0, 100.0))
    topo.add_link("e", "f", Link(0.0, 100.0))
    topo.add_link("b", "c", Link(0.0, 100.0))
    topo.add_link("d", "e", Link(0.0, 100.0))
    sim = Simulator()
    net = FlowNetwork(sim, topo)
    finish = {}

    def xfer(name, src, dst, size):
        yield net.transfer(src, dst, size)
        finish[name] = sim.now

    for name, src, dst, size in (("X", "a", "b", 300.0),
                                 ("V", "a", "b", 100.0),
                                 ("Y", "c", "d", 200.0),
                                 ("Z", "e", "f", 1000.0)):
        sim.process(xfer(name, src, dst, size))

    drained_cols = []
    on_drained = net._on_drained

    def drained(fid):
        drained_cols.append((sim.now, net._col_of[fid]))
        on_drained(fid)

    net._on_drained = drained
    checked = []
    sim.schedule(2.5, _check_settled_state, net, checked)
    sim.run()

    assert drained_cols[:3] == [(1.0, 1), (2.0, 1), (2.0, 0)]
    assert finish["X"] == finish["Y"] == 2.0
    assert checked == [1]
    assert finish["Z"] == 10.0
