import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import NetworkError
from repro.netsim import FlowNetwork, max_min_fair_rates, weighted_max_min_rates
from repro.netsim.fairness import link_loads
from repro.simcore import Simulator


class TestWeightedAllocator:
    def test_unit_weights_match_plain_maxmin(self):
        caps = [100.0, 1000.0]
        flows = [[0], [0, 1], [1]]
        np.testing.assert_allclose(
            weighted_max_min_rates(caps, flows, [1, 1, 1]),
            max_min_fair_rates(caps, flows),
        )

    def test_weights_split_proportionally(self):
        rates = weighted_max_min_rates([100.0], [[0], [0]], [3.0, 1.0])
        np.testing.assert_allclose(rates, [75.0, 25.0])

    def test_background_flow_yields(self):
        # foreground weight 1, background 0.1 share one link
        rates = weighted_max_min_rates([110.0], [[0], [0]], [1.0, 0.1])
        np.testing.assert_allclose(rates, [100.0, 10.0])

    def test_local_flow_unconstrained(self):
        rates = weighted_max_min_rates([10.0], [[], [0]], [1.0, 2.0])
        assert math.isinf(rates[0])
        assert rates[1] == pytest.approx(10.0)

    def test_bad_weights_rejected(self):
        with pytest.raises(NetworkError):
            weighted_max_min_rates([10.0], [[0]], [0.0])
        with pytest.raises(NetworkError):
            weighted_max_min_rates([10.0], [[0]], [1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(
        caps=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_property_feasible_and_work_conserving(self, caps, data):
        n_links = len(caps)
        n_flows = data.draw(st.integers(1, 8))
        flows = [
            data.draw(st.lists(st.integers(0, n_links - 1), min_size=1,
                               max_size=n_links, unique=True))
            for _ in range(n_flows)
        ]
        weights = [data.draw(st.floats(0.1, 10.0)) for _ in range(n_flows)]
        rates = weighted_max_min_rates(caps, flows, weights)
        loads = link_loads(n_links, flows, rates)
        # feasible
        assert np.all(loads <= np.asarray(caps) * (1 + 1e-9) + 1e-9)
        # every flow bottlenecked at some saturated link
        for f, links in enumerate(flows):
            assert any(
                loads[l] >= caps[l] * (1 - 1e-6) for l in links
            ), f"flow {f} not bottlenecked"

    @settings(max_examples=60, deadline=None)
    @given(w=st.floats(0.1, 10.0))
    def test_property_scaling_all_weights_is_noop(self, w):
        caps = [100.0, 50.0]
        flows = [[0], [0, 1], [1]]
        base = weighted_max_min_rates(caps, flows, [1.0, 1.0, 1.0])
        scaled = weighted_max_min_rates(caps, flows, [w, w, w])
        np.testing.assert_allclose(base, scaled, rtol=1e-9)


class TestWeightedFlows:
    def make_net(self):
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        topo.add_site(Site("b", Tier.CLOUD))
        topo.add_link("a", "b", Link(0.0, 100.0))
        sim = Simulator()
        return sim, FlowNetwork(sim, topo)

    def test_weighted_transfer_shares_proportionally(self):
        sim, net = self.make_net()
        done = {}

        def xfer(tag, size, weight):
            flow = yield net.transfer("a", "b", size, weight=weight)
            done[tag] = sim.now

        # foreground 300 B at weight 3, background 100 B at weight 1:
        # rates 75/25 -> both drain at t=4
        sim.process(xfer("fg", 300.0, 3.0))
        sim.process(xfer("bg", 100.0, 1.0))
        sim.run()
        assert done["fg"] == pytest.approx(4.0)
        assert done["bg"] == pytest.approx(4.0)

    def test_background_barely_delays_foreground(self):
        def run(with_background):
            sim, net = self.make_net()
            done = {}

            def fg():
                yield net.transfer("a", "b", 100.0, weight=1.0)
                done["fg"] = sim.now

            def bg():
                yield net.transfer("a", "b", 100.0, weight=0.01)
                done["bg"] = sim.now

            sim.process(fg())
            if with_background:
                sim.process(bg())
            sim.run()
            return done["fg"]

        alone = run(False)
        contended = run(True)
        assert alone == pytest.approx(1.0)
        # with weight 0.01 the background adds ~1% to fg completion
        assert contended < 1.02

    def test_invalid_weight_rejected(self):
        sim, net = self.make_net()
        for weight in (0.0, float("nan"), float("inf")):
            with pytest.raises(NetworkError, match="weight"):
                net.transfer("a", "b", 10.0, weight=weight)

    def test_replication_uses_low_weight(self):
        """Background replication barely perturbs a foreground flow."""
        from repro.datafabric import (
            Dataset, ReplicaCatalog, ReplicationPolicy, ReplicationService,
            TransferService,
        )

        topo = Topology()
        topo.add_site(Site("edge", Tier.EDGE))
        topo.add_site(Site("cloud", Tier.CLOUD))
        topo.add_link("edge", "cloud", Link(0.0, 100.0))
        sim = Simulator()
        net = FlowNetwork(sim, topo)
        cat = ReplicaCatalog()
        cat.register(Dataset("hot", 100.0))
        cat.add_replica("hot", "cloud")
        svc = TransferService(sim, net, cat)
        rep = ReplicationService(svc, ReplicationPolicy(
            targets=("edge",), hot_after=1, weight=0.05,
        ))
        done = {}

        def foreground():
            yield net.transfer("cloud", "edge", 100.0)
            done["fg"] = sim.now

        rep.record_access("hot", "edge")   # starts the background push
        sim.process(foreground())
        sim.run()
        # foreground ~100/95.2 s instead of 2.0 s under equal sharing
        assert done["fg"] < 1.1
        assert cat.has_replica("hot", "edge")
