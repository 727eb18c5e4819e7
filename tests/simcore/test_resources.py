import pytest

from repro.errors import SimulationError
from repro.simcore import Resource, Simulator, Timeout


def hold(sim, resource, duration, log=None, tag=None):
    req = resource.request()
    yield req
    if log is not None:
        log.append(("start", tag, sim.now))
    yield Timeout(duration)
    resource.release(req)
    if log is not None:
        log.append(("end", tag, sim.now))


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(Exception):
            Resource(Simulator(), 0)

    def test_serializes_on_capacity_one(self):
        sim = Simulator()
        res = Resource(sim, 1)
        log = []
        for i in range(3):
            sim.process(hold(sim, res, 2.0, log, i))
        sim.run()
        starts = [t for kind, _, t in log if kind == "start"]
        assert starts == [0.0, 2.0, 4.0]
        assert sim.now == 6.0

    def test_parallel_up_to_capacity(self):
        sim = Simulator()
        res = Resource(sim, 2)
        log = []
        for i in range(4):
            sim.process(hold(sim, res, 3.0, log, i))
        sim.run()
        starts = sorted(t for kind, _, t in log if kind == "start")
        assert starts == [0.0, 0.0, 3.0, 3.0]

    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def claimant(i):
            req = res.request()
            yield req
            order.append(i)
            yield Timeout(1.0)
            res.release(req)

        for i in range(5):
            sim.process(claimant(i))
        sim.run()
        assert order == list(range(5))

    def test_multi_unit_request(self):
        sim = Simulator()
        res = Resource(sim, 4)
        log = []

        def big():
            req = res.request(3)
            yield req
            log.append(("big", sim.now))
            yield Timeout(2.0)
            res.release(req)

        def small():
            yield Timeout(0.5)
            req = res.request(2)
            yield req
            log.append(("small", sim.now))
            yield Timeout(1.0)
            res.release(req)

        sim.process(big())
        sim.process(small())
        sim.run()
        # small (2 units) cannot start until big (3 units) releases at t=2
        assert log == [("big", 0.0), ("small", 2.0)]

    def test_request_exceeding_capacity_rejected(self):
        res = Resource(Simulator(), 2)
        with pytest.raises(SimulationError):
            res.request(3)

    def test_release_without_grant_rejected(self):
        sim = Simulator()
        res = Resource(sim, 1)
        req = res.request()
        with pytest.raises(SimulationError):
            res.release(req)

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, 1)
        for i in range(3):
            sim.process(hold(sim, res, 5.0))
        sim.run(until=1.0)
        assert res.in_use == 1
        assert res.queue_length == 2

    def test_utilization_full(self):
        sim = Simulator()
        res = Resource(sim, 1)
        sim.process(hold(sim, res, 10.0))
        sim.run()
        assert res.utilization() == pytest.approx(1.0)

    def test_utilization_half(self):
        sim = Simulator()
        res = Resource(sim, 2)
        sim.process(hold(sim, res, 10.0))
        sim.run()
        assert res.utilization() == pytest.approx(0.5)

    def test_utilization_zero_time(self):
        res = Resource(Simulator(), 1)
        assert res.utilization() == 0.0

    def test_total_granted(self):
        sim = Simulator()
        res = Resource(sim, 1)
        for _ in range(4):
            sim.process(hold(sim, res, 1.0))
        sim.run()
        assert res.total_granted == 4
