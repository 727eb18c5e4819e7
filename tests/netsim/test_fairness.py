import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.netsim.fairness import max_min_fair_rates
from tests.oracles.link_loads import link_loads


class TestMaxMinBasics:
    def test_empty(self):
        assert max_min_fair_rates([1e9], []).size == 0

    def test_single_flow_gets_full_capacity(self):
        rates = max_min_fair_rates([100.0], [[0]])
        assert rates[0] == pytest.approx(100.0)

    def test_two_flows_split_equally(self):
        rates = max_min_fair_rates([100.0], [[0], [0]])
        np.testing.assert_allclose(rates, [50.0, 50.0])

    def test_local_flow_unconstrained(self):
        rates = max_min_fair_rates([100.0], [[], [0]])
        assert math.isinf(rates[0])
        assert rates[1] == pytest.approx(100.0)

    def test_bottleneck_releases_capacity_elsewhere(self):
        # Classic 3-flow example: links a (cap 100) and b (cap 1000).
        # f0 uses a only, f1 uses a+b, f2 uses b only.
        # a's fair share is 50 for f0 and f1; f2 then gets 950 on b.
        rates = max_min_fair_rates([100.0, 1000.0], [[0], [0, 1], [1]])
        np.testing.assert_allclose(rates, [50.0, 50.0, 950.0])

    def test_multihop_flow_limited_by_worst_link(self):
        rates = max_min_fair_rates([100.0, 10.0, 100.0], [[0, 1, 2]])
        assert rates[0] == pytest.approx(10.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(NetworkError):
            max_min_fair_rates([0.0], [[0]])
        with pytest.raises(NetworkError):
            max_min_fair_rates([math.inf], [[0]])

    def test_unknown_link_rejected(self):
        with pytest.raises(NetworkError):
            max_min_fair_rates([100.0], [[3]])


@st.composite
def random_scenario(draw):
    n_links = draw(st.integers(1, 6))
    caps = draw(
        st.lists(st.floats(1.0, 1e4), min_size=n_links, max_size=n_links)
    )
    n_flows = draw(st.integers(1, 10))
    flows = [
        draw(
            st.lists(st.integers(0, n_links - 1), min_size=1, max_size=n_links,
                     unique=True)
        )
        for _ in range(n_flows)
    ]
    return caps, flows


class TestMaxMinProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_scenario())
    def test_feasible_no_link_overloaded(self, scenario):
        caps, flows = scenario
        rates = max_min_fair_rates(caps, flows)
        loads = link_loads(len(caps), flows, rates)
        assert np.all(loads <= np.asarray(caps) * (1 + 1e-9) + 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(random_scenario())
    def test_all_rates_positive(self, scenario):
        caps, flows = scenario
        rates = max_min_fair_rates(caps, flows)
        assert np.all(rates > 0)

    @settings(max_examples=150, deadline=None)
    @given(random_scenario())
    def test_maxmin_bottleneck_property(self, scenario):
        """Every flow crosses a saturated link where its rate is maximal."""
        caps, flows = scenario
        caps = np.asarray(caps)
        rates = max_min_fair_rates(caps, flows)
        loads = link_loads(len(caps), flows, rates)
        for f, links in enumerate(flows):
            ok = False
            for l in links:
                saturated = loads[l] >= caps[l] * (1 - 1e-6)
                flows_on_l = [g for g, gl in enumerate(flows) if l in gl]
                maximal = all(rates[f] >= rates[g] - 1e-6 for g in flows_on_l)
                if saturated and maximal:
                    ok = True
                    break
            assert ok, f"flow {f} has no bottleneck link"
