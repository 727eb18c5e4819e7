"""Property tests for the metrics determinism contract.

The merge guarantees the bench runner leans on — sharded registries
reproduce whole-run accumulation regardless of how observations are
split or in which order shards are folded — plus exporter round-trips.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.metrics import (
    ExactSum,
    Histogram,
    MetricsRegistry,
    log_buckets,
    snapshot_to_json,
    to_prometheus,
)
from tests.observe.prometheus import parse_prometheus

finite = st.floats(min_value=0.0, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
values = st.lists(finite, min_size=0, max_size=60)


@given(values, st.integers(min_value=2, max_value=5),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_counter_shard_merge_equals_whole_run(xs, n_shards, rnd):
    """Splitting increments across shards and merging in any order gives
    the same rounded value as one whole-run counter."""
    whole = MetricsRegistry()
    for x in xs:
        whole.counter("c").labels().inc(x)
    shards = [MetricsRegistry() for _ in range(n_shards)]
    for x in xs:
        rnd.choice(shards).counter("c").labels().inc(x)
    states = [s.dump_state() for s in shards]
    rnd.shuffle(states)
    merged = MetricsRegistry()
    for state in states:
        merged.merge_state(state)
    assert snapshot_to_json(merged.snapshot()) == snapshot_to_json(
        whole.snapshot())


@given(values, values)
@settings(max_examples=60, deadline=None)
def test_exactsum_merge_commutes(xs, ys):
    ab = ExactSum()
    for x in xs:
        ab.add(x)
    b = ExactSum()
    for y in ys:
        b.add(y)
    ab.merge(b)

    ba = ExactSum()
    for y in ys:
        ba.add(y)
    a = ExactSum()
    for x in xs:
        a.add(x)
    ba.merge(a)
    assert ab.value == ba.value


@given(values, values, values)
@settings(max_examples=60, deadline=None)
def test_exactsum_merge_associates(xs, ys, zs):
    def acc(vals):
        s = ExactSum()
        for v in vals:
            s.add(v)
        return s

    left = acc(xs)
    left.merge(acc(ys))
    left.merge(acc(zs))

    bc = acc(ys)
    bc.merge(acc(zs))
    right = acc(xs)
    right.merge(bc)
    assert left.value == right.value


@given(st.lists(st.floats(min_value=1e-6, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=0, max_size=80))
@settings(max_examples=60, deadline=None)
def test_histogram_shard_merge_equals_whole_run(xs):
    whole = Histogram("h", log_buckets(1e-3, 2.0, 40))
    for x in xs:
        whole.observe(x)
    r1, r2 = MetricsRegistry(), MetricsRegistry()
    r1.histogram("h")
    r2.histogram("h")
    for i, x in enumerate(xs):
        (r1 if i % 2 else r2).histogram("h").labels().observe(x)
    merged = MetricsRegistry()
    merged.merge_state(r1.dump_state())
    merged.merge_state(r2.dump_state())
    h = merged.get("h").labels()
    assert h.counts == whole.counts
    assert h.overflow == whole.overflow
    assert h.count == whole.count
    assert h.sum == whole.sum


@given(st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4), finite,
    min_size=0, max_size=8), values)
@settings(max_examples=60, deadline=None)
def test_prometheus_round_trip(labelled_counts, hist_values):
    reg = MetricsRegistry()
    fam = reg.counter("req_total", "requests", ("route",))
    for route, v in labelled_counts.items():
        fam.labels(route=route).inc(v)
    h = reg.histogram("lat_seconds", "latency")
    for v in hist_values:
        h.labels().observe(v)
    parsed = parse_prometheus(to_prometheus(reg))
    for route, v in labelled_counts.items():
        got = parsed["req_total"]["series"][(("route", route),)]
        assert got == fam.labels(route=route).value
    if hist_values:
        hist = parsed["lat_seconds"]["series"][()]
        assert hist["count"] == len(hist_values)
        assert hist["buckets"][math.inf] == len(hist_values)
    else:
        assert parsed["lat_seconds"]["series"] == {}
