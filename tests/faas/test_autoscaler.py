import pytest

from repro.continuum import Site, Tier
from repro.errors import FaaSError
from repro.faas import (
    Autoscaler,
    ContainerModel,
    Endpoint,
    FunctionDef,
    FunctionRegistry,
    ScalingPolicy,
    SerializationModel,
)
from repro.simcore import Simulator, Timeout

NO_SER = SerializationModel(base_s=0.0, bytes_per_second=1e18)
NO_CONTAINERS = ContainerModel(cold_start_s=0.0, warm_start_s=0.0)


def make_endpoint(workers=1, work=5.0):
    sim = Simulator()
    site = Site("s", Tier.EDGE, speed=1.0, slots=64)
    reg = FunctionRegistry()
    reg.register(FunctionDef("f", work=work))
    ep = Endpoint(sim, site, reg, workers=workers,
                  containers=NO_CONTAINERS, serialization=NO_SER)
    return sim, ep


class TestScalingPolicy:
    def test_bounds_validation(self):
        with pytest.raises(FaaSError):
            ScalingPolicy(min_workers=4, max_workers=2)

    def test_bad_values(self):
        with pytest.raises(Exception):
            ScalingPolicy(step=0)
        with pytest.raises(Exception):
            ScalingPolicy(interval_s=0)


class TestResourceElasticity:
    def test_grow_grants_queued_requests(self):
        sim, ep = make_endpoint(workers=1, work=10.0)
        done = []

        def client(i):
            record = yield ep.invoke("f")
            done.append((i, sim.now))

        for i in range(2):
            sim.process(client(i))

        def grow():
            yield Timeout(1.0)
            ep.workers.set_capacity(2)

        sim.process(grow())
        sim.run()
        # second request starts at t=1 instead of t=10
        assert done[1][1] == pytest.approx(11.0)

    def test_shrink_never_preempts(self):
        sim, ep = make_endpoint(workers=2, work=10.0)

        def client():
            yield ep.invoke("f")

        sim.process(client())
        sim.process(client())

        def shrink():
            yield Timeout(1.0)
            ep.workers.set_capacity(1)

        sim.process(shrink())
        sim.run()
        # both finish at t=10: no preemption
        assert sim.now == pytest.approx(10.0)

    def test_time_averaged_capacity(self):
        sim, ep = make_endpoint(workers=2)
        res = ep.workers

        def resize():
            yield Timeout(10.0)
            res.set_capacity(4)
            yield Timeout(10.0)

        sim.run_process(resize())
        assert res.time_averaged_capacity() == pytest.approx(3.0)


class TestAutoscaler:
    def burst(self, sim, ep, n, at=0.0):
        done = []

        def client(i):
            yield Timeout(at)
            record = yield ep.invoke("f")
            done.append(sim.now)

        for i in range(n):
            sim.process(client(i))
        return done

    def test_scales_up_under_backlog(self):
        sim, ep = make_endpoint(workers=1, work=20.0)
        scaler = Autoscaler(ep, ScalingPolicy(
            min_workers=1, max_workers=8, scale_up_at=2, step=2,
            interval_s=1.0, provision_delay_s=3.0,
        ))
        scaler.start()
        self.burst(sim, ep, 8)
        sim.run()
        assert scaler.scaling_events, "no scaling happened"
        grew = [e for e in scaler.scaling_events if e[2] > e[1]]
        assert grew
        # capacity respected the ceiling
        assert max(e[2] for e in scaler.scaling_events) <= 8

    def test_faster_than_fixed_pool(self):
        def drive(autoscale):
            sim, ep = make_endpoint(workers=1, work=20.0)
            if autoscale:
                scaler = Autoscaler(ep, ScalingPolicy(
                    min_workers=1, max_workers=8, scale_up_at=1, step=2,
                    interval_s=1.0, provision_delay_s=2.0,
                ))
                scaler.start()
            self.burst(sim, ep, 8)
            sim.run()
            return sim.now

        assert drive(True) < drive(False)

    def test_scales_back_down_when_idle(self):
        sim, ep = make_endpoint(workers=1, work=5.0)
        scaler = Autoscaler(ep, ScalingPolicy(
            min_workers=1, max_workers=4, scale_up_at=1, step=1,
            interval_s=1.0, provision_delay_s=1.0,
        ))
        scaler.start()
        self.burst(sim, ep, 6)

        def stopper():
            yield Timeout(60.0)
            scaler.stop()

        sim.process(stopper())
        sim.run()
        assert scaler.endpoint.workers.capacity == 1
        # it went up before coming down
        assert max(e[2] for e in scaler.scaling_events) > 1

    def test_never_below_min_or_above_max(self):
        sim, ep = make_endpoint(workers=2, work=3.0)
        policy = ScalingPolicy(min_workers=2, max_workers=5, scale_up_at=1,
                               step=3, interval_s=0.5, provision_delay_s=0.5)
        scaler = Autoscaler(ep, policy)
        scaler.start()
        self.burst(sim, ep, 20)

        def stopper():
            yield Timeout(120.0)
            scaler.stop()

        sim.process(stopper())
        sim.run()
        capacities = [e[2] for e in scaler.scaling_events]
        assert all(2 <= c <= 5 for c in capacities)
        assert scaler.endpoint.workers.capacity >= 2

    def test_no_scale_down_while_workers_busy(self):
        """Scale-down needs queue empty AND every worker idle.

        One long request occupies a worker the whole run: the queue is
        empty throughout, but shrinking before the request finishes
        would flap capacity under steady load (the old code shrank
        whenever *any* worker was idle)."""
        sim, ep = make_endpoint(workers=2, work=50.0)
        scaler = Autoscaler(ep, ScalingPolicy(
            min_workers=1, max_workers=4, scale_up_at=10, step=1,
            interval_s=1.0, provision_delay_s=1.0,
        ))
        scaler.start()
        done = []

        def client():
            yield ep.invoke("f")
            done.append(sim.now)

        sim.process(client())

        def stopper():
            yield Timeout(60.0)
            scaler.stop()

        sim.process(stopper())
        sim.run()
        assert done == [pytest.approx(50.0)]
        # no capacity change while the request was running
        assert [e for e in scaler.scaling_events if e[0] < 50.0] == []
        # once fully drained, the pool does shrink to the floor
        assert scaler.endpoint.workers.capacity == 1

    def test_double_start_rejected(self):
        sim, ep = make_endpoint()
        scaler = Autoscaler(ep)
        scaler.start()
        with pytest.raises(FaaSError):
            scaler.start()

    def test_starting_below_min_rejected(self):
        sim, ep = make_endpoint(workers=1)
        with pytest.raises(FaaSError):
            Autoscaler(ep, ScalingPolicy(min_workers=2, max_workers=4))
