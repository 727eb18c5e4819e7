"""Whole-experiment differential: E16 with quiescent heartbeat rounds
replayed in closed form vs the message-by-message loop.

E16 runs the replicated control plane in every read mode, at two lags,
with and without partitions; its quick table and its metrics snapshot
must be byte-identical on both engines.
"""

from contextlib import nullcontext

from repro.bench.runner import run_suite, suite_metrics_doc
from repro.observe.metrics import snapshot_to_json
from tests.oracles import stepwise


def _render(engine):
    with engine():
        entries = run_suite(["E16"], quick=True, seed=0,
                            collect_metrics=True)
    doc = suite_metrics_doc(entries, quick=True, seed=0)
    return entries[0].rendered, snapshot_to_json(doc)


def test_e16_table_and_metrics_byte_identical():
    table, metrics = _render(nullcontext)
    ref_table, ref_metrics = _render(stepwise)
    assert table == ref_table
    assert metrics == ref_metrics
