"""Span emission from the dataflow kernel (real wall-clock execution)."""

import pytest

from repro.observe import Tracer, to_chrome_trace, validate_chrome_trace
from repro.workflow import DataFlowKernel, SerialExecutor, ThreadExecutor


def add(a, b):
    return a + b


def boom():
    raise ValueError("boom")


class TestDataflowSpans:
    def test_task_span_per_submission(self):
        tracer = Tracer()
        with DataFlowKernel(SerialExecutor(), tracer=tracer) as dfk:
            fut = dfk.submit(add, 1, 2)
            assert fut.result() == 3
        tasks = [s for s in tracer.spans if s.category == "dftask"]
        assert len(tasks) == 1
        assert tasks[0].name.startswith("task:add#")
        assert tasks[0].closed and tasks[0].status == "ok"
        runs = [c for c in tracer.spans
                if c.parent_id == tasks[0].span_id and c.category == "run"]
        assert len(runs) == 1
        validate_chrome_trace(to_chrome_trace(tracer))

    def test_dependency_wait_span(self):
        tracer = Tracer()
        with DataFlowKernel(SerialExecutor(), tracer=tracer) as dfk:
            a = dfk.submit(add, 1, 2)
            b = dfk.submit(add, a, 10)
            assert b.result() == 13
        waits = [s for s in tracer.spans
                 if s.category == "queue" and s.name == "wait-deps"]
        assert len(waits) == 2
        assert all(w.closed for w in waits)

    def test_memo_hit_recorded(self):
        tracer = Tracer()
        with DataFlowKernel(SerialExecutor(), memoize=True,
                            tracer=tracer) as dfk:
            assert dfk.submit(add, 2, 3).result() == 5
            assert dfk.submit(add, 2, 3).result() == 5
            assert dfk.tasks_memoized == 1
        hits = [s for s in tracer.spans
                if s.category == "dftask" and s.instant
                and s.name == "memo-hit"]
        assert len(hits) == 1
        memoized = [s for s in tracer.spans
                    if s.category == "dftask" and s.attrs.get("memoized")]
        assert len(memoized) == 1
        # the memoized task ran no executor attempt
        assert not [s for s in tracer.spans
                    if s.parent_id == memoized[0].span_id
                    and s.category == "run"]

    def test_failure_marks_span(self):
        tracer = Tracer()
        with DataFlowKernel(SerialExecutor(), tracer=tracer) as dfk:
            fut = dfk.submit(boom)
            with pytest.raises(ValueError):
                fut.result()
        (tspan,) = [s for s in tracer.spans if s.category == "dftask"]
        assert tspan.status == "failed"

    def test_thread_executor_spans_close(self):
        """Spans are begun/ended from worker threads; the tracer's lock
        must keep the record consistent."""
        tracer = Tracer()
        with DataFlowKernel(ThreadExecutor(max_workers=4),
                            tracer=tracer) as dfk:
            futures = [dfk.submit(add, i, i) for i in range(16)]
            assert [f.result() for f in futures] == [2 * i for i in range(16)]
        assert all(s.closed for s in tracer.spans)
        assert sum(s.category == "dftask" for s in tracer.spans) == 16
        validate_chrome_trace(to_chrome_trace(tracer))
