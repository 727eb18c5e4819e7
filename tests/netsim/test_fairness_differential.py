"""Differential validation of the vectorized fair-share solver.

A frozen pure-Python scalar reference for max-min fairness (progressive
filling with per-flow loops — the implementation shape the vectorized
solver replaced) lives in this file. Hypothesis-generated random
topologies drive both implementations, which must agree to 1e-9 on
every flow rate, including the degenerate shapes: single flow, all
flows on one link, local (link-less) flows.

Also here: the shape/dtype validation contract of ``equal_share_rates``
and ``link_loads`` (satellite of the calendar-queue PR) and
conservation properties tying ``link_loads`` to independently-computed
per-link sums.

And the one-flow closed form :class:`FlowNetwork` solves lone flows
with, which must equal the solver bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import ConfigurationError, NetworkError
from repro.netsim.fairness import (
    equal_share_rates,
    link_loads,
    max_min_fair_rates,
)
from repro.netsim.network import FlowNetwork, _lone_flow_rate
from repro.simcore import Simulator


# ---------------------------------------------------------------------------
# Frozen scalar reference (pure Python progressive filling)
# ---------------------------------------------------------------------------

def scalar_max_min(caps, flow_links):
    n_links = len(caps)
    n_flows = len(flow_links)
    rates = [0.0] * n_flows
    active = [True] * n_flows
    n_active = n_flows
    link_flows = [[] for _ in range(n_links)]
    for f, links in enumerate(flow_links):
        for l in links:
            link_flows[l].append(f)
        if not links:
            rates[f] = math.inf
            active[f] = False
            n_active -= 1
    remaining = [float(c) for c in caps]
    while n_active > 0:
        best_l, best_level = -1, math.inf
        for l in range(n_links):
            count = sum(1 for f in link_flows[l] if active[f])
            if count > 0:
                level = remaining[l] / count
                if level < best_level:
                    best_level, best_l = level, l
        if best_l < 0:
            break
        newly = [f for f in link_flows[best_l] if active[f]]
        for f in newly:
            rates[f] = best_level
            active[f] = False
        n_active -= len(newly)
        newly_set = set(newly)
        for l in range(n_links):
            drained = 0.0
            for f in link_flows[l]:
                if f in newly_set:
                    drained += rates[f]
            remaining[l] = max(remaining[l] - drained, 0.0)
    return rates


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
# One-flow closed form (FlowNetwork's lone-flow solve)
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


class TestLoneFlowClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(lone_flow())
    def test_bit_identical_to_solver(self, scenario):
        caps, column = scenario
        solved = max_min_fair_rates(caps, column[:, None])
        closed = _lone_flow_rate(caps, column)
        assert closed.shape == solved.shape == (1,)
        assert closed.tobytes() == solved.tobytes()

    def test_every_capacity_write_path_validates(self):
        """The closed form skips ``_check_capacities``: that is safe only
        because both ways a capacity reaches the network reject what the
        check would."""
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
# Validation contract (equal_share_rates / link_loads)
# ---------------------------------------------------------------------------

class TestValidation:
    def test_equal_share_rejects_bad_capacities(self):
        with pytest.raises(NetworkError):
            equal_share_rates([[100.0]], [[0]])         # 2-D capacities
        with pytest.raises(NetworkError):
            equal_share_rates([-1.0], [[0]])
        with pytest.raises(NetworkError):
            equal_share_rates([math.nan], [[0]])

    def test_equal_share_rejects_bad_incidence(self):
        with pytest.raises(NetworkError):
            equal_share_rates([100.0], np.ones((2, 3)))  # wrong link count
        with pytest.raises(NetworkError):
            equal_share_rates([100.0], np.ones(3))       # 1-D matrix
        with pytest.raises(NetworkError):
            equal_share_rates([100.0], np.ones((1, 3), dtype=np.int64))
        with pytest.raises(NetworkError):
            equal_share_rates([100.0], [[5]])            # unknown link

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
    def test_equal_share_never_exceeds_capacity(self, scenario):
        caps, flows = scenario
        rates = equal_share_rates(caps, flows)
        loads = link_loads(len(caps), flows, rates)
        assert np.all(loads <= np.asarray(caps) * (1 + 1e-9) + 1e-9)

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

    @settings(max_examples=100, deadline=None)
    @given(rate_scenario())
    def test_equal_share_matches_per_flow_minimum(self, scenario):
        """The vectorized masked min equals the scalar per-flow loop it
        replaced, bit for bit."""
        caps, flows = scenario
        vec = equal_share_rates(caps, flows)
        counts = [0] * len(caps)
        for links in flows:
            for l in links:
                counts[l] += 1
        cap_arr = np.asarray(caps, dtype=float)
        for f, links in enumerate(flows):
            expected = min(
                (float(np.float64(cap_arr[l]) / counts[l]) for l in links),
                default=math.inf,
            )
            assert vec[f] == expected
