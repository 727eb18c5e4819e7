"""Tracer span lifecycle: nesting, clocks, sentinels, round trips."""

import json

import pytest

from repro.errors import ObserveError
from repro.observe import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.simcore import Simulator, Timeout


class TestSpanLifecycle:
    def test_begin_end_duration(self):
        tracer = Tracer(clock=lambda: 0.0)
        span = tracer.begin("work", "test", time=1.0)
        tracer.end(span, time=3.5)
        assert span.closed
        assert span.duration_s == pytest.approx(2.5)
        assert tracer.finished() == [span]

    def test_nesting_via_parent(self):
        tracer = Tracer(clock=lambda: 0.0)
        outer = tracer.begin("outer", time=0.0)
        inner = tracer.begin("inner", parent=outer, time=1.0)
        tracer.end(inner, time=2.0)
        tracer.end(outer, time=3.0)
        assert inner.parent_id == outer.span_id
        assert [s for s in tracer.spans
                if s.parent_id == outer.span_id] == [inner]

    def test_double_end_rejected(self):
        tracer = Tracer(clock=lambda: 1.0)
        span = tracer.begin("s")
        tracer.end(span)
        with pytest.raises(ObserveError, match="already ended"):
            tracer.end(span)

    def test_end_before_begin_rejected(self):
        tracer = Tracer()
        span = tracer.begin("s", time=5.0)
        with pytest.raises(ObserveError, match="before its begin"):
            tracer.end(span, time=4.0)

    def test_end_merges_attributes_and_status(self):
        tracer = Tracer()
        span = tracer.begin("s", time=0.0, site="edge")
        tracer.end(span, time=1.0, status="interrupted", cause="outage")
        assert span.status == "interrupted"
        assert span.attrs == {"site": "edge", "cause": "outage"}

    def test_instant_is_closed_zero_width(self):
        tracer = Tracer()
        assert tracer.instant("tick", "event", time=4.0) is None
        (mark,) = tracer.spans
        assert mark.instant and mark.closed
        assert mark.duration_s == 0.0


class TestClockBinding:
    def test_bind_callable(self):
        tracer = Tracer()
        tracer.bind(lambda: 42.0)
        assert tracer.bound
        assert tracer.now() == 42.0

    def test_bind_object_with_now(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.bind(sim)

        def body():
            yield Timeout(3.0)
            tracer.instant("late")

        sim.run_process(body())
        assert tracer.finished()[0].begin_s == 3.0

    def test_bind_garbage_rejected(self):
        with pytest.raises(ObserveError):
            Tracer().bind(object())

    def test_unbound_uses_wall_clock(self):
        tracer = Tracer()
        assert not tracer.bound
        assert tracer.now() >= 0.0


class TestDisabledTracing:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.begin("s")
        assert span is NULL_SPAN
        tracer.end(span)                  # silently ignored
        tracer.instant("tick")
        assert tracer.spans == []

    def test_null_tracer_singleton_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.begin("x") is NULL_SPAN
        assert NULL_TRACER.spans == []

    def test_end_of_none_is_noop(self):
        Tracer().end(None)


class TestRetrievalAndRoundTrip:
    def make_tree(self, tracer):
        root = tracer.begin("task:a", "task", time=0.0)
        stage = tracer.begin("stage", "phase", parent=root, time=0.0)
        tracer.end(stage, time=1.0)
        run = tracer.begin("exec", "phase", parent=root, time=1.0)
        tracer.end(run, time=4.0)
        tracer.end(root, time=4.0)
        tracer.instant("ready", "event", time=0.0)
        return root

    def test_by_category_and_open(self):
        tracer = Tracer()
        self.make_tree(tracer)
        dangling = tracer.begin("unfinished", time=5.0)
        assert len([s for s in tracer.spans if s.category == "phase"]) == 2
        assert [s for s in tracer.spans if not s.closed] == [dangling]

    def test_export_round_trip(self):
        """Tracer -> Chrome JSON -> serialize -> parse -> validate."""
        tracer = Tracer()
        self.make_tree(tracer)
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        count = validate_chrome_trace(doc)
        # 1 metadata + 3 B/E pairs + 1 instant
        assert count == 8
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "B"]
        assert names == ["task:a", "stage", "exec"]

    def test_clear_resets_ids(self):
        tracer = Tracer()
        self.make_tree(tracer)
        tracer.clear()
        assert tracer.spans == []
        assert tracer.begin("fresh", time=0.0).span_id == 1


def add(a, b):
    return a + b


class TestSpanStore:
    def test_end_after_clear_rejected(self):
        tracer = Tracer()
        stale = tracer.begin("stale", time=0.0)
        tracer.clear()
        fresh = tracer.begin("fresh", time=1.0, site="edge")
        assert fresh.span_id == stale.span_id
        with pytest.raises(ObserveError, match="not open"):
            tracer.end(stale, time=2.0, status="failed", cause="late")
        (kept,) = tracer.spans
        assert kept is fresh
        assert (kept.end_s, kept.status, kept.attrs) == (
            None, "ok", {"site": "edge"})
        tracer.end(fresh, time=3.0)
        assert tracer.finished() == [fresh]
        assert tracer.finished()[0].end_s == 3.0

    def test_threaded_dataflow_ids_are_contiguous(self):
        """Workers end spans concurrently with the main thread's
        begins; ids stay unique and in begin order, every span closes,
        and the export validates."""
        from repro.workflow import DataFlowKernel, ThreadExecutor

        tracer = Tracer()
        with DataFlowKernel(ThreadExecutor(max_workers=4),
                            tracer=tracer) as dfk:
            heads = [dfk.submit(add, i, i) for i in range(24)]
            tails = [dfk.submit(add, f, 1) for f in heads]
            assert [f.result() for f in tails] == [2 * i + 1
                                                   for i in range(24)]
        spans = tracer.spans
        assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
        assert sum(s.category == "dftask" for s in spans) == 48
        assert all(s.closed for s in spans)
        validate_chrome_trace(to_chrome_trace(tracer))

    def test_concurrent_begin_end_stress(self):
        """More threads than cores, switching every microsecond: a lost
        update would show as a missing, duplicated or open span."""
        import sys
        import threading

        tracer = Tracer(clock=lambda: 1.0)
        n_threads, n_spans = 8, 1000

        def work(k):
            for i in range(n_spans):
                span = tracer.begin("w", "test", worker=k, i=i)
                tracer.instant("tick", "test", parent=span)
                tracer.end(span, done=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        spans = tracer.spans
        assert len(spans) == 2 * n_threads * n_spans
        assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
        assert all(s.closed for s in tracer.spans)
        work_spans = [s for s in spans if s.name == "w"]
        assert sorted((s.attrs["worker"], s.attrs["i"]) for s in work_spans) \
            == [(k, i) for k in range(n_threads) for i in range(n_spans)]
        assert all(s.attrs["done"] for s in work_spans)
