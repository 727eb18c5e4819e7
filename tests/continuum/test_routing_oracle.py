"""Differential tests: Topology routing against networkx.

The routing loop in ``repro.continuum.topology`` follows networkx's
``single_source_dijkstra`` step for step, and it is the only search:
pair queries (``path_info``) and row fills (``path_rows``) read the
same routes. Tie-heavy latencies make every tie-break visible: any
divergence in heap keys, relaxation order or float sums picks a
different route here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import Link, Tier, Topology
from repro.continuum.builders import make_site
from repro.errors import TopologyError

nx = pytest.importorskip("networkx")

LATENCIES = (0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def topologies(draw):
    """A random topology (often disconnected) and its networkx twin,
    built with the same site and link insertion order."""
    n = draw(st.integers(1, 9))
    names = [f"s{i}" for i in draw(st.permutations(range(n)))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    topo = Topology("oracle")
    graph = nx.Graph()
    for name in names:
        topo.add_site(make_site(name, Tier.EDGE))
        graph.add_node(name)
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        latency = draw(st.sampled_from(LATENCIES))
        bandwidth = draw(st.sampled_from((1e6, 2e6, 5e6)))
        topo.add_link(a, b, Link(latency, bandwidth, latency / 10))
        graph.add_edge(a, b, weight=latency)
    return topo, graph


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_pair_routes_match_single_source_dijkstra(case):
    topo, graph = case
    # pair queries first, on a topology with no row filled
    for src in topo.site_names:
        _, paths = nx.single_source_dijkstra(graph, src)
        for dst in topo.site_names:
            expected = paths.get(dst)
            if expected is None:
                with pytest.raises(TopologyError, match="no route"):
                    topo.path_info(src, dst)
                continue
            assert list(topo.path_info(src, dst).hops) == expected


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_row_fills_match_single_source_dijkstra(case):
    topo, graph = case
    index = topo.site_index
    for src in topo.site_names:
        _, paths = nx.single_source_dijkstra(graph, src)
        lat, bw, usd = topo.path_rows(src)
        for dst, col in index.items():
            expected = paths.get(dst)
            if expected is None:
                assert (lat[col], bw[col], usd[col]) == (math.inf, 0.0, math.inf)
                continue
            # the row fill cached the composed route under (src, dst)
            info = topo.path_info(src, dst)
            assert list(info.hops) == expected
            assert lat[col] == info.latency_s


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_links_and_components_match_networkx(case):
    topo, graph = case
    assert [(a, b) for a, b, _ in topo.links()] == list(graph.edges())
    assert topo.link_count == graph.number_of_edges()
    comps = topo.components()
    assert [set(c) for c in comps] == list(nx.connected_components(graph))
    assert sum(map(len, comps)) == len(topo)
    if len(comps) > 1:
        with pytest.raises(TopologyError, match="disconnected"):
            topo.validate()
    else:
        topo.validate()


def square() -> Topology:
    """A 4-cycle with two 3.0 s routes from a to c: a-b-c at 1 MB/s and
    a-d-c at 2 MB/s. The single-source search settles d before b, so
    it routes a-d-c."""
    topo = Topology("square")
    for name in ("a", "b", "c", "d"):
        topo.add_site(make_site(name, Tier.EDGE))
    topo.add_link("a", "b", Link(2.0, 1e6))
    topo.add_link("a", "d", Link(1.0, 2e6))
    topo.add_link("b", "c", Link(1.0, 1e6))
    topo.add_link("c", "d", Link(2.0, 2e6))
    return topo


def test_pair_route_does_not_depend_on_query_order():
    col = square().site_index["c"]
    pair_first = square()
    row_first = square()
    row_first.path_rows("a")
    for topo in (pair_first, row_first):
        pair = topo.path_info("a", "c")
        assert pair.hops == ("a", "d", "c")
        assert pair.bandwidth_Bps == 2e6
        _, bw, _ = topo.path_rows("a")
        assert bw[col] == 2e6
        assert topo.path_info("a", "c") is pair
