import pytest

from repro.continuum import Site, Tier
from repro.errors import FaaSError
from repro.faas import ContainerModel, Endpoint, FunctionDef, FunctionRegistry, SerializationModel
from repro.simcore import Simulator, Timeout

NO_SER = SerializationModel(base_s=0.0, bytes_per_second=1e18)


def make_endpoint(speed=1.0, slots=1, cold=1.0, warm=0.1, keep=300.0,
                  specializations=None, workers=None):
    sim = Simulator()
    site = Site("s", Tier.EDGE, speed=speed, slots=slots,
                specializations=specializations or {})
    reg = FunctionRegistry()
    reg.register(FunctionDef("f", work=2.0))
    reg.register(FunctionDef("gpu-f", work=8.0, kind="dnn"))
    ep = Endpoint(
        sim, site, reg,
        workers=workers,
        containers=ContainerModel(cold_start_s=cold, warm_start_s=warm,
                                  keep_alive_s=keep),
        serialization=NO_SER,
    )
    return sim, ep


class TestInvocationTiming:
    def test_first_invocation_pays_cold_start(self):
        sim, ep = make_endpoint()

        def body():
            record = yield ep.invoke("f")
            return record

        record = sim.run_process(body())
        assert record.cold_start
        assert record.startup_time == 1.0
        assert record.exec_time == 2.0
        assert record.service_time == pytest.approx(3.0)
        assert ep.cold_starts == 1

    def test_second_invocation_is_warm(self):
        sim, ep = make_endpoint()

        def body():
            yield ep.invoke("f")
            record = yield ep.invoke("f")
            return record

        record = sim.run_process(body())
        assert not record.cold_start
        assert record.startup_time == pytest.approx(0.1)
        assert ep.warm_starts == 1

    def test_warm_expires_after_keep_alive(self):
        sim, ep = make_endpoint(keep=5.0)

        def body():
            yield ep.invoke("f")          # done at t=3
            yield Timeout(10.0)            # warm expired at t=8
            record = yield ep.invoke("f")
            return record

        record = sim.run_process(body())
        assert record.cold_start

    def test_specialization_shortens_exec(self):
        sim, ep = make_endpoint(specializations={"dnn": 8.0})

        def body():
            record = yield ep.invoke("gpu-f")
            return record

        record = sim.run_process(body())
        # work 8 at speed 1*8 => 1 s
        assert record.exec_time == pytest.approx(1.0)

    def test_queueing_single_worker(self):
        sim, ep = make_endpoint()
        records = []

        def client():
            record = yield ep.invoke("f")
            records.append(record)

        sim.process(client())
        sim.process(client())
        sim.run()
        # second waits for first (cold 1+2=3), then warm 0.1+2
        assert records[0].queue_time == 0.0
        assert records[1].queue_time == pytest.approx(3.0)
        assert sim.now == pytest.approx(5.1)

    def test_parallel_workers_both_cold(self):
        sim, ep = make_endpoint(slots=2)
        records = []

        def client():
            record = yield ep.invoke("f")
            records.append(record)

        sim.process(client())
        sim.process(client())
        sim.run()
        assert all(r.cold_start for r in records)
        assert sim.now == pytest.approx(3.0)

    def test_batched_invocation_work_scales(self):
        sim, ep = make_endpoint()

        def body():
            record = yield ep.invoke("f", batched=4)
            return record

        record = sim.run_process(body())
        assert record.batched == 4
        assert record.exec_time == pytest.approx(8.0)

    def test_work_override(self):
        sim, ep = make_endpoint()

        def body():
            record = yield ep.invoke("f", work_override=10.0)
            return record

        assert sim.run_process(body()).exec_time == pytest.approx(10.0)


class TestValidation:
    def test_unknown_function(self):
        sim, ep = make_endpoint()
        with pytest.raises(FaaSError):
            ep.invoke("ghost")

    def test_bad_batch(self):
        sim, ep = make_endpoint()
        with pytest.raises(FaaSError):
            ep.invoke("f", batched=0)

    def test_zero_workers_rejected(self):
        with pytest.raises(FaaSError):
            make_endpoint(workers=0)


class TestEstimates:
    def test_estimate_matches_measured_warm(self):
        sim, ep = make_endpoint()
        est = ep.estimate_service_time("f", assume_warm=True)

        def body():
            yield ep.invoke("f")              # warm the container
            record = yield ep.invoke("f")
            return record

        record = sim.run_process(body())
        assert record.service_time == pytest.approx(est)

    def test_estimate_cold_higher_than_warm(self):
        _, ep = make_endpoint()
        assert ep.estimate_service_time("f", assume_warm=False) > \
            ep.estimate_service_time("f", assume_warm=True)


class TestAccounting:
    def test_records_and_busy_seconds(self):
        sim, ep = make_endpoint()

        def body():
            yield ep.invoke("f")
            yield ep.invoke("f")

        sim.run_process(body())
        assert len(ep.records) == 2
        assert ep.busy_seconds == pytest.approx((1.0 + 2.0) + (0.1 + 2.0))

    def test_warm_count_visibility(self):
        """The container an invocation leaves warm serves the next."""
        sim, ep = make_endpoint()

        def body():
            first = yield ep.invoke("f")
            second = yield ep.invoke("f")
            return first.cold_start, second.cold_start

        assert sim.run_process(body()) == (True, False)
        assert (ep.cold_starts, ep.warm_starts) == (1, 1)
