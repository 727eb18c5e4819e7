"""Differential test: the one-timer network drains exactly like the
per-flow-event network it replaced.

:class:`FlowNetwork` keeps one kernel timer at the smallest
``(due, batch)`` pair instead of one kernel event per flow. That is only
exact if every drain lands at the same place in the kernel's
``(time, seq)`` order as its own event did, relative to every other
event: completions, deferred solves, and events of other components
that start transfers or read the network at the same instant. The frozen
per-flow network in ``tests/oracles/flow_network.py`` runs the same
scenario on its own simulator, and the two event logs must be equal bit
for bit.

Scenarios use round numbers so that coincidences are common: link
bandwidths of 1, 2 or 4 B/s, latencies of 0 or 0.5 s, transfers of 1 to
4 B at integer times, other events on a 0.25 s grid, and brownouts at
integer times. Drains then often share an instant with each other and
with the other events.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import Link, Site, Tier, Topology
from repro.netsim.network import FlowNetwork
from repro.simcore import Simulator
from tests.oracles.flow_network import FlowNetwork as PerFlowDrainNetwork

SITES = "abcde"
# a tree, so every pair has exactly one route
EDGES = (("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"))

site = st.sampled_from(SITES)
size = st.integers(1, 4).map(float)
pair = st.tuples(site, site).filter(lambda p: p[0] != p[1])

transfers = st.lists(
    st.tuples(st.integers(0, 6), pair, size,
              st.one_of(st.none(), st.tuples(pair, size))),
    min_size=1, max_size=12,
)
foreign = st.lists(
    st.tuples(
        st.integers(0, 28),
        st.sampled_from(("start", "count", "chain")),
        pair, size,
    ),
    max_size=12,
)
brownouts = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, len(EDGES) - 1),
              st.sampled_from((1.0, 2.0, 4.0))),
    max_size=4,
)
links = st.lists(
    st.tuples(st.sampled_from((1.0, 2.0, 4.0)), st.sampled_from((0.0, 0.5))),
    min_size=len(EDGES), max_size=len(EDGES),
)


def _topology(link_params) -> Topology:
    topo = Topology("tree")
    for name in SITES:
        topo.add_site(Site(name, Tier.FOG))
    for (a, b), (bandwidth, latency) in zip(EDGES, link_params):
        topo.add_link(a, b, Link(latency, bandwidth))
    return topo


def _run(network_cls, link_params, xfers, others, browns) -> list:
    """Run one scenario; return everything an observer could see."""
    sim = Simulator()
    net = network_cls(sim, _topology(link_params))
    log = []
    on_drained = net._on_drained

    def drained(fid):
        log.append(("drain", fid, sim.now))
        on_drained(fid)

    net._on_drained = drained

    def xfer(tag, src, dst, nbytes, then=None):
        flow = yield net.transfer(src, dst, nbytes)
        log.append(("done", tag, flow.flow_id, sim.now))
        if then is not None:
            # a follow-up started in the instant the first one lands
            (src2, dst2), nbytes2 = then
            sim.process(xfer(f"{tag}+", src2, dst2, nbytes2))

    for i, (t, (src, dst), nbytes, then) in enumerate(xfers):
        sim.schedule(float(t), lambda i=i, s=src, d=dst, b=nbytes, n=then:
                     sim.process(xfer(f"x{i}", s, d, b, n)))

    def other(i, kind, src, dst, nbytes):
        if kind == "count":
            log.append(("count", i, sim.now, net.active_flow_count))
        else:
            sim.process(xfer(f"o{i}", src, dst, nbytes))
            if kind == "chain":
                sim.schedule(0.0, lambda: sim.process(
                    xfer(f"o{i}.", dst, src, nbytes)))

    for i, (k, kind, (src, dst), nbytes) in enumerate(others):
        sim.schedule(k / 4, other, i, kind, src, dst, nbytes)
    for t, edge, bandwidth in browns:
        sim.schedule(float(t), net.set_link_bandwidth, *EDGES[edge], bandwidth)

    sim.run()
    log.append(("end", sim.now, net.rate_solves, net.flows_started,
                net.flows_completed, net.total_bytes_moved))
    return log


@settings(max_examples=400, deadline=None)
@given(links, transfers, foreign, brownouts)
def test_one_timer_matches_per_flow_drain_events(link_params, xfers, others,
                                                 browns):
    expected = _run(PerFlowDrainNetwork, link_params, xfers, others, browns)
    got = _run(FlowNetwork, link_params, xfers, others, browns)
    assert got == expected
