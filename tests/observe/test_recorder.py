"""Unit tests for the sim-clock gauge recorder and its Chrome counter
export."""

import pytest

from repro.errors import ObserveError
from repro.observe.chrome import to_chrome_trace, validate_chrome_trace
from repro.observe.recorder import MetricsRecorder, series_counter_events


class TestRecorder:
    def test_validation(self):
        with pytest.raises(ObserveError):
            MetricsRecorder(interval_s=0)
        with pytest.raises(ObserveError):
            MetricsRecorder(max_samples=2)
        rec = MetricsRecorder()
        rec.add_probe("x", lambda: 1.0)
        with pytest.raises(ObserveError, match="duplicate"):
            rec.add_probe("x", lambda: 2.0)

    def test_tick_samples_all_probes(self):
        state = {"v": 0}
        rec = MetricsRecorder(interval_s=2.0)
        rec.add_probe("a", lambda: state["v"])
        rec.add_probe("b", lambda: 10)
        state["v"] = 5
        rec.tick(1.0)
        assert rec.next_t == 3.0
        state["v"] = 7
        rec.tick(3.5)
        assert rec.series["a"] == [(1.0, 5.0), (3.5, 7.0)]
        assert rec.series["b"] == [(1.0, 10.0), (3.5, 10.0)]
        assert rec.sample_count() == 2

    def test_decimation_bounds_samples(self):
        rec = MetricsRecorder(interval_s=1.0, max_samples=8)
        rec.add_probe("n", lambda: 1.0)
        t = 0.0
        for _ in range(200):
            if t >= rec.next_t:
                rec.tick(t)
            t += 1.0
        assert rec.sample_count() <= 8
        assert rec.interval_s > 1.0            # doubled at least once
        times = [t for t, _ in rec.series["n"]]
        assert times == sorted(times)

    def test_decimation_keeps_exact_samples(self):
        """Each decimation keeps the odd positions of every series and
        doubles the interval; later ticks land in the thinned series."""
        rec = MetricsRecorder(interval_s=1.0, max_samples=4)
        rec.add_probe("t", lambda: t)
        rec.add_probe("twice", lambda: 2 * t)
        for t in range(21):
            if t >= rec.next_t:
                rec.tick(float(t))
        assert rec.series["t"] == [(7.0, 7.0), (15.0, 15.0)]
        assert rec.series["twice"] == [(7.0, 14.0), (15.0, 30.0)]
        assert (rec.interval_s, rec.next_t) == (8.0, 23.0)

    def test_counter_events_sorted_and_valid(self):
        rec = MetricsRecorder(interval_s=1.0)
        rec.add_probe("beta", lambda: 2.0)
        rec.add_probe("alpha", lambda: 1.0)
        rec.tick(0.5)
        rec.tick(1.5)
        events = series_counter_events(rec.series)
        assert [(e["ts"], e["name"]) for e in events] == [
            (0.5e6, "alpha"), (0.5e6, "beta"),
            (1.5e6, "alpha"), (1.5e6, "beta"),
        ]
        assert all(e["ph"] == "C" for e in events)
        validate_chrome_trace({"traceEvents": events})

    def test_series_counter_events_matches_recorder(self):
        """A recorder and the timeseries a registry keeps of it export
        the same counter events."""
        rec = MetricsRecorder()
        rec.add_probe("q", lambda: 3.0)
        rec.tick(2.0)
        assert to_chrome_trace([], recorder=rec) == \
            to_chrome_trace([], recorder=dict(rec.series))
