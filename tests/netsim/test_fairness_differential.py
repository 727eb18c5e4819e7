"""Differential validation of the vectorized fair-share solver.

The frozen pure-Python scalar max-min solver in
``tests/oracles/fair_share.py`` (progressive filling with per-flow
loops, the implementation shape the vectorized solver replaced) is the
reference. Hypothesis-generated random topologies drive both
implementations, which must agree to 1e-9 on every flow rate, including
the degenerate shapes: single flow, all flows on one link, local
(link-less) flows.

Also here: the shape/dtype validation contract of ``max_min_fair_rates``
and ``link_loads`` and conservation properties tying ``link_loads`` to independently-computed
per-link sums.

And the route form :class:`FlowNetwork` solves with: one weighted
column per route must give, flow for flow, the bits of the per-flow
solve, and the closed form for one live route must equal the solver
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import ConfigurationError, NetworkError
from repro.netsim.fairness import max_min_fair_rates
from repro.netsim.network import FlowNetwork, _lone_route_rate
from repro.simcore import Simulator
from tests.oracles import scalar_max_min
from tests.oracles.link_loads import link_loads


@st.composite
def scenario(draw):
    n_links = draw(st.integers(1, 6))
    caps = draw(
        st.lists(st.floats(1.0, 1e4), min_size=n_links, max_size=n_links)
    )
    n_flows = draw(st.integers(1, 12))
    flows = [
        draw(st.lists(st.integers(0, n_links - 1), min_size=0,
                      max_size=n_links, unique=True))
        for _ in range(n_flows)
    ]
    return caps, flows


class TestMaxMinDifferential:
    @settings(max_examples=200, deadline=None)
    @given(scenario())
    def test_matches_scalar_reference(self, scenario):
        caps, flows = scenario
        ref = np.asarray(scalar_max_min(caps, flows))
        vec = max_min_fair_rates(caps, flows)
        np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-9)

    def test_single_flow(self):
        ref = scalar_max_min([40.0], [[0]])
        vec = max_min_fair_rates([40.0], [[0]])
        np.testing.assert_allclose(vec, ref)
        assert vec[0] == pytest.approx(40.0)

    def test_all_flows_one_link(self):
        caps = [100.0]
        flows = [[0]] * 10
        ref = np.asarray(scalar_max_min(caps, flows))
        vec = max_min_fair_rates(caps, flows)
        np.testing.assert_allclose(vec, ref, rtol=1e-9)
        assert vec.sum() == pytest.approx(100.0)

    def test_zero_capacity_link_rejected(self):
        # capacities must be strictly positive — degenerate topologies
        # are a validation error, not a solver input
        with pytest.raises(NetworkError):
            max_min_fair_rates([0.0], [[0]])
        with pytest.raises(NetworkError):
            max_min_fair_rates([0.0, 10.0], [[0], [1]])

    def test_local_flows_only(self):
        vec = max_min_fair_rates([10.0], [[], []])
        assert np.all(np.isinf(vec))


# ---------------------------------------------------------------------------
# Weighted route columns (FlowNetwork's solve over routes)
# ---------------------------------------------------------------------------

@st.composite
def routed_flows(draw):
    """Random capacities, route columns (repeats and link-less ones
    included), a flow count per route, and a shuffled flow order."""
    n_links = draw(st.integers(1, 8))
    caps = draw(st.lists(st.floats(1e-3, 1e12), min_size=n_links,
                         max_size=n_links))
    n_routes = draw(st.integers(1, 10))
    routes = np.zeros((n_links, n_routes))
    for r in range(n_routes):
        if r and draw(st.booleans()):
            routes[:, r] = routes[:, draw(st.integers(0, r - 1))]
        else:
            routes[draw(st.lists(st.integers(0, n_links - 1),
                                 unique=True)), r] = 1.0
    weights = draw(st.lists(st.integers(1, 40), min_size=n_routes,
                            max_size=n_routes))
    route_of = draw(st.permutations(np.repeat(np.arange(n_routes),
                                              weights).tolist()))
    return np.asarray(caps), routes, np.asarray(weights), np.asarray(route_of)


class TestWeightedRoutes:
    @settings(max_examples=300, deadline=None)
    @given(routed_flows())
    def test_route_solve_is_the_per_flow_solve(self, case):
        caps, routes, weights, route_of = case
        per_flow = max_min_fair_rates(caps, routes[:, route_of])
        per_route = max_min_fair_rates(caps, routes, weights)
        assert per_route[route_of].tobytes() == per_flow.tobytes()

    def test_unit_weights_are_the_default(self):
        caps, flows = [10.0, 30.0], [[0], [0, 1], [1], []]
        assert (max_min_fair_rates(caps, flows, [1, 1, 1, 1]).tobytes()
                == max_min_fair_rates(caps, flows).tobytes())

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 0.0], [1.0, -2.0],
                                         [1.0, math.inf], [1.0, math.nan],
                                         [[1.0, 1.0]], np.ones(3)])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(NetworkError, match="weights"):
            max_min_fair_rates([10.0], [[0], [0]], weights)


# ---------------------------------------------------------------------------
# One-route closed form (FlowNetwork's lone-route solve)
# ---------------------------------------------------------------------------

@st.composite
def lone_flow(draw):
    n_links = draw(st.integers(1, 8))
    caps = draw(st.lists(st.floats(1e-3, 1e12), min_size=n_links,
                         max_size=n_links))
    # brownouts scale a link's capacity by a factor in (0, 1]
    for link in draw(st.lists(st.integers(0, n_links - 1), unique=True)):
        caps[link] *= draw(st.floats(1e-3, 1.0))
    column = np.zeros(n_links)
    column[draw(st.lists(st.integers(0, n_links - 1), unique=True))] = 1.0
    return np.asarray(caps), column


def closed_form_args(caps, column):
    """The network's form of a lone route: capacities as floats, the
    route as its sorted link ids."""
    return caps.tolist(), tuple(column.nonzero()[0].tolist())


class TestLoneFlowClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(lone_flow())
    def test_bit_identical_to_solver(self, scenario):
        caps, column = scenario
        solved = max_min_fair_rates(caps, column[:, None])
        closed = np.array([_lone_route_rate(*closed_form_args(caps, column),
                                            1)])
        assert solved.shape == (1,)
        assert closed.tobytes() == solved.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(lone_flow())
    def test_k_flows_bit_identical_to_solver(self, scenario):
        caps, column = scenario
        for k in range(1, 65):
            closed = np.array([_lone_route_rate(
                *closed_form_args(caps, column), k)])
            weighted = max_min_fair_rates(caps, column[:, None], [k])
            per_flow = max_min_fair_rates(caps, np.tile(column[:, None], k))
            assert closed.tobytes() == weighted.tobytes()
            assert per_flow.tobytes() == np.repeat(closed, k).tobytes()

    def test_every_capacity_write_path_validates(self):
        """The closed form and the solver core skip
        ``_check_capacities``: that is safe only because both ways a
        capacity reaches the network reject what the check would."""
        for bandwidth in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="bandwidth_Bps"):
                Link(0.0, bandwidth)
        topo = Topology("pair")
        topo.add_site(Site("a", Tier.EDGE))
        topo.add_site(Site("b", Tier.CLOUD))
        topo.add_link("a", "b", Link(0.0, 10.0))
        net = FlowNetwork(Simulator(), topo)
        for bandwidth in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NetworkError, match="bandwidth_Bps"):
                net.set_link_bandwidth("a", "b", bandwidth)


# ---------------------------------------------------------------------------
# Validation contract (max_min_fair_rates / link_loads)
# ---------------------------------------------------------------------------

class TestValidation:
    def test_max_min_rejects_bad_capacities(self):
        with pytest.raises(NetworkError):
            max_min_fair_rates([[100.0]], [[0]])         # 2-D capacities
        with pytest.raises(NetworkError):
            max_min_fair_rates([-1.0], [[0]])
        with pytest.raises(NetworkError):
            max_min_fair_rates([math.nan], [[0]])

    def test_max_min_rejects_bad_incidence(self):
        with pytest.raises(NetworkError):
            max_min_fair_rates([100.0], np.ones((2, 3)))  # wrong link count
        with pytest.raises(NetworkError):
            max_min_fair_rates([100.0], np.ones(3))       # 1-D matrix
        with pytest.raises(NetworkError):
            max_min_fair_rates([100.0], np.ones((1, 3), dtype=np.int64))
        with pytest.raises(NetworkError):
            max_min_fair_rates([100.0], [[5]])            # unknown link

    def test_link_loads_rejects_bad_rates(self):
        with pytest.raises(NetworkError):
            link_loads(1, [[0], [0]], [1.0])             # wrong length
        with pytest.raises(NetworkError):
            link_loads(1, [[0]], [[1.0]])                # 2-D rates
        with pytest.raises(NetworkError):
            link_loads(1, [[0]], [math.nan])
        with pytest.raises(NetworkError):
            link_loads(1, [[0]], [-2.0])

    def test_link_loads_accepts_inf_rates(self):
        # local flows legitimately carry rate inf and load nothing
        loads = link_loads(1, [[], [0]], [math.inf, 3.0])
        np.testing.assert_allclose(loads, [3.0])


# ---------------------------------------------------------------------------
# Conservation properties
# ---------------------------------------------------------------------------

@st.composite
def rate_scenario(draw):
    n_links = draw(st.integers(1, 5))
    caps = draw(
        st.lists(st.floats(1.0, 1e4), min_size=n_links, max_size=n_links)
    )
    n_flows = draw(st.integers(1, 10))
    flows = [
        draw(st.lists(st.integers(0, n_links - 1), min_size=1,
                      max_size=n_links, unique=True))
        for _ in range(n_flows)
    ]
    return caps, flows


class TestConservation:
    @settings(max_examples=150, deadline=None)
    @given(rate_scenario())
    def test_link_loads_conserve_per_link_sums(self, scenario):
        """link_loads is exactly the per-link sum of crossing flows'
        rates — computed here independently, flow by flow."""
        caps, flows = scenario
        rates = max_min_fair_rates(caps, flows)
        loads = link_loads(len(caps), flows, rates)
        for l in range(len(caps)):
            expected = sum(rates[f] for f, links in enumerate(flows)
                           if l in links)
            assert loads[l] == pytest.approx(expected, rel=1e-12, abs=1e-12)
