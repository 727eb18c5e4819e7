"""Property test: the persistent incidence matrix is indistinguishable
from a freshly rebuilt one.

:class:`FlowNetwork` maintains its link x flow matrix incrementally
(columns added on transfer, marked dead on drain and compacted away in
one order-preserving pass before the next read). Across randomized
start/finish/brownout sequences, at settled instants the matrix must be
*bit-identical* to one rebuilt from scratch with ``_incidence``, and the
live rates must be bit-identical to a fresh allocator solve — not merely
close: the incremental path is an optimization, never an approximation.
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
    incremental_A = net._A[:, :n]
    assert np.array_equal(incremental_A, fresh_A)

    fresh_rates = max_min_fair_rates(net._capacity_arr, fresh_A)
    # bit-identical, not approx: same allocator, same matrix, same order
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
    compaction drops several dead columns. Between a drain and its
    deferred solve, a ``utilization_of`` read must not count the drained
    flow, and a ``transfer()`` started there lands after the dead
    columns; after every solve the matrix and rates must still equal a
    from-scratch rebuild."""
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
    probes = []
    restarts = []
    on_drained, solve_rates = net._on_drained, net._solve_rates

    def drained(fid):
        flow = net._active.get(fid)
        rate = net._col_rates[net._col_of[fid]] if flow is not None else 0.0
        on_drained(fid)
        if flow is None:
            return
        if fid % 4 == 0:
            # mid-burst read: compacts early, must see only live flows
            a, b = flow.path.hops[0], flow.path.hops[1]
            idx = net._link_index[frozenset((a, b))]
            load = net.utilization_of(a, b) * net.link_bandwidth(a, b)
            assert not net._dead
            live = sum(
                net._col_rates[net._col_of[f]]
                for f, other in net._active.items()
                if idx in _link_ids(net, other)
            )
            assert rate > 0
            assert load == pytest.approx(live, rel=1e-9, abs=1e-9)
            probes.append(fid)
        elif len(restarts) < 3:
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
    assert probes and len(restarts) == 3 and checked
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
