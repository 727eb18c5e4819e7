"""Span emission from FaaS endpoints and the autoscaler."""

import pytest

from repro.continuum import Site, Tier
from repro.faas import (
    Autoscaler,
    ContainerModel,
    Endpoint,
    FunctionDef,
    FunctionRegistry,
    ScalingPolicy,
    SerializationModel,
)
from repro.observe import Tracer, to_chrome_trace, validate_chrome_trace
from repro.simcore import Simulator, Timeout


def make_endpoint(tracer, workers=1, work=5.0, cold_start_s=0.0):
    sim = Simulator()
    site = Site("s", Tier.EDGE, speed=1.0, slots=64)
    reg = FunctionRegistry()
    reg.register(FunctionDef("f", work=work))
    ep = Endpoint(
        sim, site, reg, workers=workers, tracer=tracer,
        containers=ContainerModel(cold_start_s=cold_start_s,
                                  warm_start_s=0.0),
        serialization=SerializationModel(base_s=0.0, bytes_per_second=1e18),
    )
    return sim, ep


class TestEndpointSpans:
    def test_invoke_span_tree(self):
        tracer = Tracer()
        sim, ep = make_endpoint(tracer, work=5.0, cold_start_s=2.0)

        def client():
            yield ep.invoke("f")

        sim.process(client())
        sim.run()
        (ispan,) = [s for s in tracer.spans if s.category == "invoke"]
        assert ispan.name == "invoke:f"
        assert ispan.closed
        assert ispan.attrs["cold_start"] is True
        children = {c.category: c for c in tracer.spans
                    if c.parent_id == ispan.span_id}
        assert {"queue", "startup", "exec"} <= set(children)
        assert children["exec"].duration_s == pytest.approx(5.0)
        assert children["startup"].duration_s == pytest.approx(2.0)
        validate_chrome_trace(to_chrome_trace(tracer))

    def test_queue_span_measures_backlog_wait(self):
        tracer = Tracer()
        sim, ep = make_endpoint(tracer, workers=1, work=10.0)

        def client():
            yield ep.invoke("f")

        sim.process(client())
        sim.process(client())
        sim.run()
        queues = sorted(s.duration_s for s in tracer.spans
                        if s.category == "queue")
        assert queues == [pytest.approx(0.0), pytest.approx(10.0)]

    def test_endpoint_binds_sim_clock(self):
        tracer = Tracer()
        sim, ep = make_endpoint(tracer, work=3.0)

        def client():
            yield Timeout(2.0)
            yield ep.invoke("f")

        sim.process(client())
        sim.run()
        (ispan,) = [s for s in tracer.spans if s.category == "invoke"]
        assert ispan.begin_s == pytest.approx(2.0)
        assert ispan.end_s == pytest.approx(5.0)


class TestAutoscalerSpans:
    def test_provision_spans_and_scale_instants(self):
        tracer = Tracer()
        sim, ep = make_endpoint(tracer, workers=1, work=20.0)
        scaler = Autoscaler(ep, ScalingPolicy(
            min_workers=1, max_workers=8, scale_up_at=2, step=2,
            interval_s=1.0, provision_delay_s=3.0,
        ))
        scaler.start()

        def client():
            yield ep.invoke("f")

        for _ in range(8):
            sim.process(client())
        sim.run()
        provisions = [s for s in tracer.spans if s.category == "scaling"]
        spans = [s for s in provisions if not s.instant]
        instants = [s for s in provisions if s.instant]
        assert spans and all(s.name == "provision" for s in spans)
        assert all(s.duration_s == pytest.approx(3.0) for s in spans)
        assert instants and all(s.name == "scale" for s in instants)
        # one scale instant per recorded scaling event, same capacities
        assert [(s.attrs["old"], s.attrs["new"]) for s in instants] == \
            [(old, new) for _, old, new in scaler.scaling_events]
