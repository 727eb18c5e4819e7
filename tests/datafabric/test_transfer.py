import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.datafabric import Dataset, ReplicaCatalog, TransferService
from repro.errors import DataFabricError
from repro.netsim import FlowNetwork
from repro.simcore import Simulator
from repro.utils.rng import RngRegistry


def make_world(failure_prob=0.0, max_attempts=3, seed=0):
    topo = Topology()
    for name in ("src", "mid", "dst"):
        topo.add_site(Site(name, Tier.FOG))
    topo.add_link("src", "mid", Link(0.0, 100.0))
    topo.add_link("mid", "dst", Link(0.0, 100.0))
    sim = Simulator()
    net = FlowNetwork(sim, topo)
    cat = ReplicaCatalog()
    svc = TransferService(
        sim, net, cat,
        failure_prob=failure_prob, max_attempts=max_attempts,
        rngs=RngRegistry(seed),
    )
    return sim, net, cat, svc


class TestStaging:
    def test_basic_stage_moves_bytes_and_registers_replica(self):
        sim, net, cat, svc = make_world()
        cat.register(Dataset("d", 200.0))
        cat.add_replica("d", "src")

        def body():
            result = yield svc.stage("d", "dst")
            return result

        result = sim.run_process(body())
        assert result.src == "src" and result.dst == "dst"
        assert result.bytes_moved == 200.0
        assert result.attempts == 1
        assert sim.now == pytest.approx(2.0)  # 200 B over two 100 B/s hops
        assert cat.has_replica("d", "dst")

    def test_stage_when_already_present_is_free(self):
        sim, net, cat, svc = make_world()
        cat.register(Dataset("d", 200.0))
        cat.add_replica("d", "dst")

        def body():
            result = yield svc.stage("d", "dst")
            return result

        result = sim.run_process(body())
        assert result.was_local
        assert result.bytes_moved == 0.0
        assert sim.now == 0.0
        assert net.total_bytes_moved == 0.0

    def test_uses_nearest_replica(self):
        # Dedicated topology where 'mid' is strictly closer to 'dst'
        # (one hop, less latency) than 'src' (two hops).
        topo = Topology()
        for name in ("src", "mid", "dst"):
            topo.add_site(Site(name, Tier.FOG))
        topo.add_link("src", "mid", Link(0.05, 100.0))
        topo.add_link("mid", "dst", Link(0.05, 100.0))
        sim = Simulator()
        net = FlowNetwork(sim, topo)
        cat = ReplicaCatalog()
        svc = TransferService(sim, net, cat)
        cat.register(Dataset("d", 100.0))
        cat.add_replica("d", "src")
        cat.add_replica("d", "mid")

        def body():
            result = yield svc.stage("d", "dst")
            return result

        result = sim.run_process(body())
        assert result.src == "mid"
        assert sim.now == pytest.approx(1.05)

    def test_unknown_dataset_rejected(self):
        _, _, _, svc = make_world()
        with pytest.raises(DataFabricError):
            svc.stage("ghost", "dst")

    def test_unknown_destination_rejected(self):
        sim, net, cat, svc = make_world()
        cat.register(Dataset("d", 1.0))
        cat.add_replica("d", "src")
        with pytest.raises(DataFabricError):
            svc.stage("d", "mars")

    def test_no_replica_fails_signal(self):
        sim, net, cat, svc = make_world()
        cat.register(Dataset("d", 1.0))

        def body():
            yield svc.stage("d", "dst")

        with pytest.raises(DataFabricError):
            sim.run_process(body())


class TestDeduplication:
    def test_concurrent_stages_share_one_transfer(self):
        sim, net, cat, svc = make_world()
        cat.register(Dataset("d", 100.0))
        cat.add_replica("d", "src")
        results = []

        def reader(tag):
            result = yield svc.stage("d", "dst")
            results.append((tag, sim.now, result))

        sim.process(reader("r1"))
        sim.process(reader("r2"))
        sim.run()
        assert len(results) == 2
        assert net.flows_started == 1
        assert net.total_bytes_moved == 100.0

    def test_sequential_second_stage_is_free(self):
        sim, net, cat, svc = make_world()
        cat.register(Dataset("d", 100.0))
        cat.add_replica("d", "src")

        def body():
            yield svc.stage("d", "dst")
            t_first = sim.now
            result = yield svc.stage("d", "dst")
            return t_first, sim.now, result

        t_first, t_second, result = sim.run_process(body())
        assert t_first == t_second
        assert result.was_local


class TestRetries:
    def test_always_failing_exhausts_attempts(self):
        sim, net, cat, svc = make_world(failure_prob=1.0, max_attempts=3)
        cat.register(Dataset("d", 100.0))
        cat.add_replica("d", "src")

        def body():
            yield svc.stage("d", "dst")

        with pytest.raises(DataFabricError, match="integrity"):
            sim.run_process(body())
        # three wire attempts crossed the network
        assert net.total_bytes_moved == pytest.approx(300.0)
        assert not cat.has_replica("d", "dst")

    def test_retry_accounting(self):
        # failure_prob=0.5 with a fixed seed: deterministic outcome; just
        # assert the invariant bytes_moved == attempts * size.
        sim, net, cat, svc = make_world(failure_prob=0.5, max_attempts=10, seed=123)
        cat.register(Dataset("d", 100.0))
        cat.add_replica("d", "src")

        def body():
            result = yield svc.stage("d", "dst")
            return result

        result = sim.run_process(body())
        assert result.bytes_moved == pytest.approx(result.attempts * 100.0)
        assert svc.total_retries == result.attempts - 1

    def test_determinism_across_runs(self):
        outcomes = []
        for _ in range(2):
            sim, net, cat, svc = make_world(failure_prob=0.7, max_attempts=10, seed=42)
            cat.register(Dataset("d", 100.0))
            cat.add_replica("d", "src")

            def body():
                result = yield svc.stage("d", "dst")
                return result.attempts

            outcomes.append(sim.run_process(body()))
        assert outcomes[0] == outcomes[1]

    def test_bad_max_attempts(self):
        with pytest.raises(DataFabricError):
            make_world(max_attempts=0)
