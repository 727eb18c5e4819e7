"""Unit tests for the unified metrics layer: instruments, registry
semantics, exporters, and the snapshot-file loaders."""

import math

import pytest

from repro.errors import ObserveError
from repro.observe.metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    STATE_SCHEMA,
    SUITE_SCHEMA,
    Counter,
    ExactSum,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    load_snapshot,
    log_buckets,
    set_registry,
    snapshot_to_json,
    to_prometheus,
    use_registry,
    validate_snapshot,
    validate_suite,
)
from tests.observe.prometheus import parse_prometheus


class TestExactSum:
    def test_simple_sum(self):
        s = ExactSum()
        for x in (0.1, 0.2, 0.3):
            s.add(x)
        assert s.value == math.fsum([0.1, 0.2, 0.3])

    def test_merge_equals_interleaved(self):
        xs = [0.1 * i for i in range(1, 50)]
        whole = ExactSum()
        for x in xs:
            whole.add(x)
        a, b = ExactSum(), ExactSum()
        for i, x in enumerate(xs):
            (a if i % 2 else b).add(x)
        a.merge(b)
        # partials representation may differ; the rounded value may not
        assert a.value == whole.value

    def test_state_round_trip(self):
        s = ExactSum()
        s.add(1e16)
        s.add(1.0)
        restored = ExactSum(s.state())
        assert restored.value == s.value


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ObserveError):
            c.inc(-1)
        with pytest.raises(ObserveError):
            c.inc(math.nan)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(7.0)
        g.set(4.0)
        assert g.value == 4.0
        assert g.updates == 3
        with pytest.raises(ObserveError):
            g.set(math.inf)

    def test_histogram_buckets(self):
        h = Histogram("h", log_buckets(1.0, 2.0, 4))   # 1, 2, 4, 8
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.overflow == 1                          # the 100.0
        assert h.cumulative() == [1, 2, 3, 3]   # le 1, 2, 4, 8
        assert h.sum == math.fsum((0.5, 1.5, 3.0, 100.0))

    def test_log_buckets_validation(self):
        assert log_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)
        with pytest.raises(ObserveError):
            log_buckets(0.0, 2.0, 3)
        with pytest.raises(ObserveError):
            log_buckets(1.0, 1.0, 3)


class TestRegistry:
    def test_idempotent_declaration(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", "hits", ("site",))
        b = reg.counter("hits_total", "", ("site",))
        assert a is b

    def test_conflicting_redeclaration_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", "", ("a",))
        with pytest.raises(ObserveError, match="re-declared"):
            reg.gauge("m", "", ("a",))
        with pytest.raises(ObserveError, match="re-declared"):
            reg.counter("m", "", ("b",))
        reg.histogram("h", start=1e-3)
        with pytest.raises(ObserveError, match="re-declared"):
            reg.histogram("h", start=1e-2)

    def test_name_and_label_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ObserveError, match="invalid metric name"):
            reg.counter("bad name")
        with pytest.raises(ObserveError, match="invalid label name"):
            reg.counter("ok", labels=("bad-label",))

    def test_labeled_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("reads_total", "", ("site", "policy"))
        fam.labels(site="edge", policy="lru").inc(3)
        fam.labels(site="edge", policy="lru").inc(1)
        fam.labels(site="cloud", policy="lru").inc()
        assert fam.labels(site="edge", policy="lru").value == 4
        with pytest.raises(ObserveError, match="takes labels"):
            fam.labels(site="edge")
        with pytest.raises(ObserveError, match="takes labels"):
            fam.labels()

    def test_unlabeled_family_has_one_child(self):
        reg = MetricsRegistry()
        reg.counter("n").labels().inc(7)
        reg.gauge("g").labels().set(1.25)
        reg.histogram("h").labels().observe(0.5)
        assert reg.counter("n").labels() is reg.counter("n").labels()
        snap = reg.snapshot()
        assert snap["metrics"]["n"]["series"][0]["value"] == 7
        assert snap["metrics"]["g"]["series"][0]["value"] == 1.25
        assert snap["metrics"]["h"]["series"][0]["count"] == 1

    def test_snapshot_validates_and_canonical_json(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help a", ("k",)).labels(k="v").inc()
        snap = validate_snapshot(reg.snapshot())
        assert snap["schema"] == METRICS_SCHEMA
        text = snapshot_to_json(snap)
        assert text == snapshot_to_json(reg.snapshot())
        assert text.endswith("\n")

    def test_merge_state_counters_exact(self):
        xs = [0.1 * i + 1e-9 for i in range(40)]
        whole = MetricsRegistry()
        for x in xs:
            whole.counter("c").labels().inc(x)
        sh1, sh2 = MetricsRegistry(), MetricsRegistry()
        for i, x in enumerate(xs):
            (sh1 if i % 2 else sh2).counter("c").labels().inc(x)
        merged = MetricsRegistry()
        merged.merge_state(sh1.dump_state())
        merged.merge_state(sh2.dump_state())
        assert snapshot_to_json(merged.snapshot()) == snapshot_to_json(
            whole.snapshot())

    def test_merge_state_gauge_last_writer(self):
        sh1, sh2 = MetricsRegistry(), MetricsRegistry()
        sh1.gauge("g").labels().set(1.0)
        sh2.gauge("g")           # declared, never set: must not clobber
        merged = MetricsRegistry()
        merged.merge_state(sh1.dump_state())
        merged.merge_state(sh2.dump_state())
        assert merged.get("g").labels().value == 1.0

    def test_merge_state_schema_check(self):
        reg = MetricsRegistry()
        with pytest.raises(ObserveError, match="cannot merge"):
            reg.merge_state({"schema": "bogus/1"})
        assert STATE_SCHEMA in repr(reg.dump_state()["schema"]) or True
        assert reg.dump_state()["schema"] == STATE_SCHEMA


class TestAmbientRegistry:
    def test_default_is_disabled(self):
        assert current_registry() is NULL_METRICS
        assert not NULL_METRICS.enabled

    def test_use_registry_scoped(self):
        reg = MetricsRegistry()
        with use_registry(reg) as installed:
            assert installed is reg
            assert current_registry() is reg
        assert current_registry() is NULL_METRICS

    def test_set_registry_none_restores_default(self):
        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            assert current_registry() is reg
        finally:
            set_registry(prev)
        assert set_registry(None) is NULL_METRICS
        assert current_registry() is NULL_METRICS


class TestPrometheusExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("reads_total", "reads", ("site",)).labels(
            site="edge").inc(12)
        reg.gauge("depth", "queue depth").labels().set(3.5)
        h = reg.histogram("lat_seconds", "latency", start=1e-3,
                          count=10).labels()
        for v in (0.002, 0.004, 0.5, 99.0):
            h.observe(v)
        return reg

    def test_text_format_shape(self):
        text = to_prometheus(self._registry())
        assert "# TYPE reads_total counter" in text
        assert 'reads_total{site="edge"} 12' in text
        assert "# HELP depth queue depth" in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text

    def test_extra_labels_prepended(self):
        text = to_prometheus(self._registry(),
                             extra_labels={"experiment": "E6"})
        assert 'reads_total{experiment="E6",site="edge"} 12' in text
        assert 'depth{experiment="E6"} 3.5' in text

    def test_round_trip(self):
        reg = self._registry()
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed["reads_total"]["series"][(("site", "edge"),)] == 12
        assert parsed["depth"]["series"][()] == 3.5
        hist = parsed["lat_seconds"]["series"][()]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(0.002 + 0.004 + 0.5 + 99.0)
        assert hist["buckets"][math.inf] == 4

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c", "", ("k",)).labels(k='a"b\\c\nd').inc()
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed["c"]["series"][(("k", 'a"b\\c\nd'),)] == 1


class TestSnapshotFiles:
    def test_load_missing(self, tmp_path):
        with pytest.raises(ObserveError, match="not found"):
            load_snapshot(str(tmp_path / "nope.json"))

    def test_load_corrupt(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ObserveError, match="not valid JSON"):
            load_snapshot(str(p))

    def test_load_unknown_schema(self, tmp_path):
        p = tmp_path / "weird.json"
        p.write_text('{"schema": "weird/9", "metrics": {}}')
        with pytest.raises(ObserveError, match="unknown metrics snapshot"):
            load_snapshot(str(p))

    def test_load_valid_snapshot_and_suite(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").labels().inc()
        snap = reg.snapshot()
        p = tmp_path / "ok.json"
        p.write_text(snapshot_to_json(snap))
        assert load_snapshot(str(p))["metrics"]["c"]["series"][0]["value"] == 1
        suite = {"schema": SUITE_SCHEMA, "config": {"quick": True, "seed": 0},
                 "experiments": {"E6": snap}}
        ps = tmp_path / "suite.json"
        ps.write_text(snapshot_to_json(suite))
        assert load_snapshot(str(ps))["schema"] == SUITE_SCHEMA

    def test_validate_suite_rejects_bad_experiment(self):
        with pytest.raises(ObserveError, match="no 'experiments'"):
            validate_suite({"schema": SUITE_SCHEMA, "experiments": {}})
        with pytest.raises(ObserveError, match="experiment E1"):
            validate_suite({"schema": SUITE_SCHEMA,
                            "experiments": {"E1": {"schema": "bad"}}})

    def test_validate_snapshot_errors(self):
        with pytest.raises(ObserveError, match="not a JSON object"):
            validate_snapshot([])
        with pytest.raises(ObserveError, match="missing 'metrics'"):
            validate_snapshot({"schema": METRICS_SCHEMA})
        with pytest.raises(ObserveError, match="unknown type"):
            validate_snapshot({"schema": METRICS_SCHEMA, "metrics":
                               {"m": {"type": "summary", "series": []}}})
