import numpy as np
import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import NetworkError
from repro.netsim import FlowNetwork, rtt
from repro.netsim.fairness import equal_share_rates, max_min_fair_rates
from repro.observe import Tracer
from repro.simcore import Simulator


def pair(latency=0.0, bandwidth=100.0):
    topo = Topology("pair")
    topo.add_site(Site("a", Tier.EDGE))
    topo.add_site(Site("b", Tier.CLOUD))
    topo.add_link("a", "b", Link(latency, bandwidth))
    return topo


def chain3(latency=0.0, bw_ab=100.0, bw_bc=100.0):
    topo = Topology("chain3")
    for name in ("a", "b", "c"):
        topo.add_site(Site(name, Tier.FOG))
    topo.add_link("a", "b", Link(latency, bw_ab))
    topo.add_link("b", "c", Link(latency, bw_bc))
    return topo


class TestSingleFlow:
    def test_completion_time_is_serialization_plus_latency(self):
        sim = Simulator()
        net = FlowNetwork(sim, pair(latency=0.5, bandwidth=100.0))

        def body():
            flow = yield net.transfer("a", "b", 100.0)
            return (sim.now, flow.size_bytes)

        t, size = sim.run_process(body())
        assert t == pytest.approx(1.0 + 0.5)
        assert size == 100.0

    def test_zero_bytes_costs_latency_only(self):
        # regression: an earlier version had a dead ternary here (both
        # branches latency_s); the documented contract is that an empty
        # message still pays exactly one path propagation latency
        sim = Simulator()
        net = FlowNetwork(sim, pair(latency=0.25, bandwidth=100.0))

        def body():
            yield net.transfer("a", "b", 0.0)
            return sim.now

        assert sim.run_process(body()) == pytest.approx(0.25)

    def test_zero_bytes_multihop_pays_full_path_latency(self):
        sim = Simulator()
        net = FlowNetwork(sim, chain3(latency=0.1))

        def body():
            yield net.transfer("a", "c", 0.0)
            return sim.now

        # two hops of 0.1 s propagation, no serialization time
        assert sim.run_process(body()) == pytest.approx(0.2)

    def test_local_transfer_instant(self):
        sim = Simulator()
        net = FlowNetwork(sim, pair())

        def body():
            yield net.transfer("a", "a", 1e12)
            return sim.now

        assert sim.run_process(body()) == 0.0

    def test_negative_size_rejected(self):
        sim = Simulator()
        net = FlowNetwork(sim, pair())
        for size in (-1, float("nan"), float("inf")):
            with pytest.raises(NetworkError, match="size_bytes"):
                net.transfer("a", "b", size)

    def test_multihop_bottleneck(self):
        sim = Simulator()
        net = FlowNetwork(sim, chain3(latency=0.1, bw_ab=100.0, bw_bc=10.0))

        def body():
            flow = yield net.transfer("a", "c", 100.0)
            return (sim.now, flow)

        t, flow = sim.run_process(body())
        # bottleneck 10 B/s => 10 s transmission + 0.2 s path latency
        assert t == pytest.approx(10.2)
        assert flow.achieved_throughput == pytest.approx(100.0 / 10.2)


class TestSharing:
    def test_two_simultaneous_flows_halve_rate(self):
        sim = Simulator()
        net = FlowNetwork(sim, pair(bandwidth=100.0))
        done = []

        def xfer(tag):
            yield net.transfer("a", "b", 100.0)
            done.append((tag, sim.now))

        sim.process(xfer("f1"))
        sim.process(xfer("f2"))
        sim.run()
        assert done[0][1] == pytest.approx(2.0)
        assert done[1][1] == pytest.approx(2.0)

    def test_rate_recovers_after_departure(self):
        """Second flow starts halfway through the first; both slow to
        half rate; survivor speeds back up after the first drains."""
        sim = Simulator()
        net = FlowNetwork(sim, pair(bandwidth=100.0))
        done = {}

        def first():
            yield net.transfer("a", "b", 100.0)
            done["first"] = sim.now

        def second():
            yield sim.timeout(0.5)
            yield net.transfer("a", "b", 100.0)
            done["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # first: 50 B alone (0.5 s), 50 B at half rate (1.0 s) => 1.5 s
        assert done["first"] == pytest.approx(1.5)
        # second: 50 B at half rate (1.0 s), 50 B alone (0.5 s) => 2.0 s
        assert done["second"] == pytest.approx(2.0)

    def test_disjoint_links_do_not_interfere(self):
        sim = Simulator()
        net = FlowNetwork(sim, chain3(bw_ab=100.0, bw_bc=100.0))
        done = {}

        def xfer(tag, src, dst):
            yield net.transfer(src, dst, 100.0)
            done[tag] = sim.now

        sim.process(xfer("ab", "a", "b"))
        sim.process(xfer("bc", "b", "c"))
        sim.run()
        assert done["ab"] == pytest.approx(1.0)
        assert done["bc"] == pytest.approx(1.0)

    def test_cross_traffic_shares_only_common_link(self):
        sim = Simulator()
        net = FlowNetwork(sim, chain3(bw_ab=100.0, bw_bc=100.0))
        done = {}

        def xfer(tag, src, dst, size):
            yield net.transfer(src, dst, size)
            done[tag] = sim.now

        sim.process(xfer("ac", "a", "c", 100.0))   # uses both links
        sim.process(xfer("bc", "b", "c", 100.0))   # uses bc only
        sim.run()
        # both share bc at 50 B/s until one drains; identical demands =>
        # both drain at t=2
        assert done["ac"] == pytest.approx(2.0)
        assert done["bc"] == pytest.approx(2.0)


class TestAccounting:
    def test_totals(self):
        sim = Simulator()
        net = FlowNetwork(sim, pair(bandwidth=100.0))

        def body():
            yield net.transfer("a", "b", 60.0)
            yield net.transfer("a", "b", 40.0)

        sim.run_process(body())
        assert net.total_bytes_moved == pytest.approx(100.0)
        assert net.flows_completed == 2
        # started/completed must balance once the network is quiescent
        assert net.flows_started == net.flows_completed

    def test_flow_counters_balance_on_fast_paths(self):
        """Local and zero-byte transfers skip the shared allocation but
        must still count as started, or the network's flow counters can
        never balance."""
        sim = Simulator()
        net = FlowNetwork(sim, pair(latency=0.25, bandwidth=100.0))

        def body():
            yield net.transfer("a", "a", 1e9)     # local fast path
            yield net.transfer("a", "b", 0.0)     # zero-byte fast path
            yield net.transfer("a", "b", 100.0)   # ordinary wire flow

        sim.run_process(body())
        assert net.flows_started == 3
        assert net.flows_completed == 3

    def test_transfer_cost_accumulates(self):
        topo = Topology("paid")
        topo.add_site(Site("a", Tier.FOG))
        topo.add_site(Site("b", Tier.CLOUD))
        topo.add_link("a", "b", Link(0.0, 1e9, usd_per_gb=0.10))
        sim = Simulator()
        net = FlowNetwork(sim, topo)

        def body():
            yield net.transfer("a", "b", 5e9)

        sim.run_process(body())
        assert net.total_transfer_cost_usd == pytest.approx(0.50)

    def test_active_flow_count_and_utilization(self):
        sim = Simulator()
        net = FlowNetwork(sim, pair(bandwidth=100.0))
        net.transfer("a", "b", 1000.0)
        sim.run(until=1.0)
        assert net.active_flow_count == 1
        assert net.utilization_of("a", "b") == pytest.approx(1.0)
        sim.run()
        assert net.active_flow_count == 0

    def test_utilization_unknown_link(self):
        sim = Simulator()
        net = FlowNetwork(sim, pair())
        with pytest.raises(NetworkError):
            net.utilization_of("a", "zzz")

    def test_bytes_per_link_conservation(self):
        sim = Simulator()
        net = FlowNetwork(sim, chain3(bw_ab=100.0, bw_bc=50.0))

        def body():
            yield net.transfer("a", "c", 200.0)

        sim.run_process(body())
        # flow crossed both links entirely
        assert net.bytes_per_link[0] == pytest.approx(200.0, rel=1e-6)
        assert net.bytes_per_link[1] == pytest.approx(200.0, rel=1e-6)


class TestTracing:
    def test_unbound_tracer_records_transfer_spans_in_sim_time(self):
        sim = Simulator()
        tracer = Tracer()
        net = FlowNetwork(sim, pair(latency=0.5, bandwidth=100.0),
                          tracer=tracer)
        assert tracer.bound

        def body():
            yield sim.timeout(2.0)
            yield net.transfer("a", "b", 100.0)

        sim.run_process(body())
        (span,) = tracer.finished()
        assert (span.name, span.category) == ("xfer:a->b", "transfer")
        assert (span.begin_s, span.end_s) == (2.0, 3.5)


class TestBoundedMemory:
    def test_completed_flows_leave_no_per_flow_state(self):
        """A long run must not grow any per-flow record: once a flow
        completes, the network keeps only aggregate counters."""
        n = 2_000
        sim = Simulator()
        net = FlowNetwork(sim, pair(latency=0.01, bandwidth=1e5))
        for i in range(n):
            # 100 B at 100 kB/s drains in 1 ms, one arrival per 5 ms
            sim.schedule(0.005 * i, net.transfer, "a", "b", 100.0)
        sim.run()

        def containers():
            # every list/dict on the network, and one level down on the
            # objects it holds (tracer, simulator, topology, ...)
            for name, value in vars(net).items():
                yield name, value
                for sub, inner in getattr(value, "__dict__", {}).items():
                    yield f"{name}.{sub}", inner

        grown = {name: len(value) for name, value in containers()
                 if isinstance(value, (list, dict)) and len(value) >= n}
        assert grown == {}
        assert not net._signals and not net._spans and net._timer is None
        # every column compacted away: no drain time or stamp left
        assert net._n_active == 0 and not net._dead
        assert net._col_due == [] and net._col_batch == []
        assert net.flows_started == net.flows_completed == n


class TestDrainTimer:
    def test_cancellations_bounded_by_rate_solves(self):
        """Every arrival changes the rate of every flow on the link. One
        drain timer is moved at most once per solve; one drain event per
        flow would be cancelled and re-pushed k times for k flows."""
        k = 64
        sim = Simulator()
        net = FlowNetwork(sim, pair(bandwidth=100.0))
        for i in range(k):
            sim.schedule(0.01 * i, net.transfer, "a", "b", 1000.0)
        sim.run()
        assert net.flows_completed == k
        assert sim._queue.cancellations <= net.rate_solves

    def test_same_instant_drains_fire_as_one_event(self):
        """Equal flows started together drain at one instant from one
        solve: one timer event drains them all."""
        sim = Simulator()
        net = FlowNetwork(sim, pair(bandwidth=100.0))
        for _ in range(8):
            net.transfer("a", "b", 100.0)
        sim.run()
        # one solve, one drain timer, eight completions, one last solve
        assert (net.rate_solves, sim.event_count) == (2, 1 + 1 + 8 + 1)
        assert net.flows_completed == 8 and sim.now == 8.0


class TestAllocatorPluggability:
    def test_equal_share_allocator_changes_outcome(self):
        # scenario from the fairness tests where equal-share strands capacity
        topo = Topology("y")
        for name in ("a", "b", "c"):
            topo.add_site(Site(name, Tier.FOG))
        topo.add_link("a", "b", Link(0.0, 100.0))
        topo.add_link("b", "c", Link(0.0, 1000.0))
        done_mm, done_eq = {}, {}

        def run(allocator, done):
            sim = Simulator()
            net = FlowNetwork(sim, topo, allocator=allocator)

            def xfer(tag, src, dst, size):
                yield net.transfer(src, dst, size)
                done[tag] = sim.now

            sim.process(xfer("ab", "a", "b", 1000.0))
            sim.process(xfer("ac", "a", "c", 1000.0))
            sim.process(xfer("bc", "b", "c", 19000.0))
            sim.run()

        run(max_min_fair_rates, done_mm)
        run(equal_share_rates, done_eq)
        # bc flow finishes sooner under max-min (950 vs 500 B/s initially)
        assert done_mm["bc"] < done_eq["bc"]

    def test_allocator_sees_one_weighted_column_per_route(self):
        """64 flows over 3 routes are solved as 3 columns whose weights
        count the flows."""
        seen = []

        def allocator(capacities, routes, weights=None):
            flows = routes.shape[1] if weights is None else np.sum(weights)
            seen.append((routes.shape[1], float(flows)))
            return max_min_fair_rates(capacities, routes, weights)

        sim = Simulator()
        net = FlowNetwork(sim, chain3(bw_ab=100.0, bw_bc=50.0),
                          allocator=allocator)
        routes = [("a", "b"), ("b", "c"), ("a", "c")]
        for i in range(64):
            net.transfer(*routes[i % 3], 100.0 + i)
        sim.run()
        assert seen[0] == (3, 64.0)
        assert all(columns <= 3 for columns, _ in seen)
        assert net.flows_completed == 64
        # every slot freed: the route matrix holds no live column
        assert not net._slot_of and not net._R.any()


class TestLatencyHelpers:
    def test_rtt(self):
        topo = pair(latency=0.05)
        assert rtt(topo, "a", "b") == pytest.approx(0.1)

    def test_local_request_is_free(self):
        assert rtt(pair(), "a", "a") == 0.0
