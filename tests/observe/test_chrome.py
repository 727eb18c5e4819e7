"""Chrome trace-event export: structure and schema validation."""

import pytest

from repro.errors import ObserveError
from repro.observe import Span, to_chrome_trace, validate_chrome_trace
from tests.observe import clocked_tracer


def traced_pair():
    tracer, clock = clocked_tracer()
    a = tracer.begin("a", "task")
    clock.now = 1.0
    b = tracer.begin("b", "task")   # overlaps a
    clock.now = 2.0
    tracer.end(a)
    clock.now = 3.0
    tracer.end(b)
    return tracer


class TestExport:
    def test_timestamps_in_microseconds(self):
        tracer, clock = clocked_tracer(1.5)
        s = tracer.begin("s")
        clock.now = 2.0
        tracer.end(s)
        events = to_chrome_trace(tracer)["traceEvents"]
        begin = next(e for e in events if e["ph"] == "B")
        end = next(e for e in events if e["ph"] == "E")
        assert begin["ts"] == pytest.approx(1.5e6)
        assert end["ts"] == pytest.approx(2.0e6)

    def test_overlapping_trees_get_separate_lanes(self):
        """Two overlapping root spans must not share a tid, or the
        B/E stack discipline breaks in the viewer."""
        doc = to_chrome_trace(traced_pair())
        tids = {e["tid"] for e in doc["traceEvents"]
                if e["ph"] in ("B", "E")}
        assert len(tids) == 2
        validate_chrome_trace(doc)

    def test_children_share_their_roots_lane(self):
        tracer, clock = clocked_tracer()
        root = tracer.begin("root")
        clock.now = 1.0
        child = tracer.begin("child", parent=root)
        clock.now = 2.0
        tracer.end(child)
        clock.now = 3.0
        tracer.end(root)
        doc = to_chrome_trace(tracer)
        lanes = {e["name"]: e["tid"] for e in doc["traceEvents"]
                 if e["ph"] == "B"}
        assert lanes["child"] == lanes["root"]

    def test_open_spans_skipped(self):
        tracer, _clock = clocked_tracer()
        tracer.begin("never-ends")
        assert to_chrome_trace(tracer)["traceEvents"] == []

    def test_attrs_exported_as_args(self):
        tracer, clock = clocked_tracer()
        s = tracer.begin("s", site="edge", bytes=128.0)
        clock.now = 1.0
        tracer.end(s)
        begin = next(e for e in to_chrome_trace(tracer)["traceEvents"]
                     if e["ph"] == "B")
        assert begin["args"]["site"] == "edge"
        assert begin["args"]["bytes"] == 128.0

    def test_accepts_plain_span_list(self):
        spans = [Span(name="x", category="c", begin_s=0.0,
                      span_id=1, end_s=1.0)]
        doc = to_chrome_trace(spans)
        assert validate_chrome_trace(doc) == 3  # metadata + B + E


class TestValidation:
    def ok_doc(self):
        return to_chrome_trace(traced_pair())

    def test_valid_doc_passes(self):
        assert self.ok_doc()  # sanity
        assert validate_chrome_trace(self.ok_doc()) == 6

    def test_not_a_dict(self):
        with pytest.raises(ObserveError):
            validate_chrome_trace([])

    def test_missing_field(self):
        doc = self.ok_doc()
        del doc["traceEvents"][-1]["name"]
        with pytest.raises(ObserveError, match="missing"):
            validate_chrome_trace(doc)

    def test_negative_timestamp(self):
        doc = self.ok_doc()
        doc["traceEvents"][-1]["ts"] = -1.0
        with pytest.raises(ObserveError, match="bad timestamp|non-monotonic"):
            validate_chrome_trace(doc)

    def test_non_monotonic_timestamps(self):
        doc = self.ok_doc()
        timed = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        timed[0]["ts"], timed[-1]["ts"] = timed[-1]["ts"], timed[0]["ts"]
        with pytest.raises(ObserveError, match="non-monotonic"):
            validate_chrome_trace(doc)

    def test_unmatched_end(self):
        doc = self.ok_doc()
        doc["traceEvents"] = [e for e in doc["traceEvents"]
                              if e["ph"] != "B"]
        with pytest.raises(ObserveError, match="no open"):
            validate_chrome_trace(doc)

    def test_unclosed_begin(self):
        doc = self.ok_doc()
        doc["traceEvents"] = [e for e in doc["traceEvents"]
                              if e["ph"] != "E"]
        with pytest.raises(ObserveError, match="unclosed"):
            validate_chrome_trace(doc)

    def test_misnested_pair(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 0, "tid": 1, "ts": 0.0},
            {"name": "b", "ph": "B", "pid": 0, "tid": 1, "ts": 1.0},
            {"name": "a", "ph": "E", "pid": 0, "tid": 1, "ts": 2.0},
            {"name": "b", "ph": "E", "pid": 0, "tid": 1, "ts": 3.0},
        ]}
        with pytest.raises(ObserveError, match="misnested"):
            validate_chrome_trace(doc)

    def test_unknown_phase(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 0, "tid": 1, "ts": 0.0},
        ]}
        with pytest.raises(ObserveError, match="phase"):
            validate_chrome_trace(doc)
