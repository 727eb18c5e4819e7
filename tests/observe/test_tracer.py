"""Tracer span lifecycle: nesting, clocks, sentinels, round trips."""

import json
import time

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
from tests.observe import clocked_tracer


class TestSpanLifecycle:
    def test_begin_end_duration(self):
        tracer, clock = clocked_tracer(1.0)
        span = tracer.begin("work", "test")
        clock.now = 3.5
        tracer.end(span)
        assert span.closed
        assert span.duration_s == pytest.approx(2.5)
        assert tracer.finished() == [span]

    def test_nesting_via_parent(self):
        tracer, clock = clocked_tracer()
        outer = tracer.begin("outer")
        clock.now = 1.0
        inner = tracer.begin("inner", parent=outer)
        clock.now = 2.0
        tracer.end(inner)
        clock.now = 3.0
        tracer.end(outer)
        assert inner.parent_id == outer.span_id
        assert [s for s in tracer.spans
                if s.parent_id == outer.span_id] == [inner]

    def test_double_end_rejected(self):
        tracer, _clock = clocked_tracer(1.0)
        span = tracer.begin("s")
        tracer.end(span)
        with pytest.raises(ObserveError, match="already ended"):
            tracer.end(span)

    def test_end_before_begin_rejected(self):
        tracer, clock = clocked_tracer(5.0)
        span = tracer.begin("s")
        clock.now = 4.0
        with pytest.raises(ObserveError, match="before its begin"):
            tracer.end(span)

    def test_end_merges_attributes_and_status(self):
        tracer, clock = clocked_tracer()
        span = tracer.begin("s", site="edge")
        clock.now = 1.0
        tracer.end(span, status="interrupted", cause="outage")
        assert span.status == "interrupted"
        assert span.attrs == {"site": "edge", "cause": "outage"}

    def test_instant_is_closed_zero_width(self):
        tracer, _clock = clocked_tracer(4.0)
        assert tracer.instant("tick", "event") is None
        (mark,) = tracer.spans
        assert mark.instant and mark.closed
        assert (mark.begin_s, mark.parent_id) == (4.0, None)
        assert mark.duration_s == 0.0


class TestClockBinding:
    def test_bind_callable(self):
        tracer = Tracer()
        tracer.bind(lambda: 42.0)
        assert tracer.bound
        tracer.instant("now")
        assert tracer.spans[0].begin_s == 42.0

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
        before = time.perf_counter()
        tracer.instant("now")
        assert before <= tracer.spans[0].begin_s <= time.perf_counter()


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
    def make_tree(self):
        tracer, clock = clocked_tracer()
        root = tracer.begin("task:a", "task")
        stage = tracer.begin("stage", "phase", parent=root)
        clock.now = 1.0
        tracer.end(stage)
        run = tracer.begin("exec", "phase", parent=root)
        clock.now = 4.0
        tracer.end(run)
        tracer.end(root)
        clock.now = 0.0
        tracer.instant("ready", "event")
        return tracer, clock

    def test_by_category_and_open(self):
        tracer, clock = self.make_tree()
        clock.now = 5.0
        dangling = tracer.begin("unfinished")
        assert len([s for s in tracer.spans if s.category == "phase"]) == 2
        assert [s for s in tracer.spans if not s.closed] == [dangling]

    def test_export_round_trip(self):
        """Tracer -> Chrome JSON -> serialize -> parse -> validate."""
        tracer, _clock = self.make_tree()
        doc = json.loads(json.dumps(to_chrome_trace(tracer)))
        count = validate_chrome_trace(doc)
        # 1 metadata + 3 B/E pairs + 1 instant
        assert count == 8
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "B"]
        assert names == ["task:a", "stage", "exec"]


class TestSpanStore:
    def test_end_of_foreign_span_rejected(self):
        """A span of another tracer is rejected, whether it shares an
        open span's id or has an id past the last row, and the open
        span's row stays untouched."""
        other, _ = clocked_tracer()
        foreign, beyond = other.begin("foreign"), other.begin("beyond")
        tracer, clock = clocked_tracer(1.0)
        own = tracer.begin("own", site="edge")
        assert own.span_id == foreign.span_id
        clock.now = 2.0
        for span in (foreign, beyond):
            with pytest.raises(ObserveError, match="not open"):
                tracer.end(span, status="failed", cause="late")
        (kept,) = tracer.spans
        assert kept is own
        assert (kept.end_s, kept.status, kept.attrs) == (
            None, "ok", {"site": "edge"})
        clock.now = 3.0
        tracer.end(own)
        assert tracer.finished() == [own]
        assert tracer.finished()[0].end_s == 3.0

    def test_concurrent_begin_end_stress(self):
        """More threads than cores, switching every microsecond: a lost
        update would show as a missing, duplicated or open span."""
        import sys
        import threading

        tracer, _clock = clocked_tracer(1.0)
        n_threads, n_spans = 8, 1000

        def work(k):
            for i in range(n_spans):
                span = tracer.begin("w", "test", worker=k, i=i)
                tracer.instant("tick", "test")
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
