"""Observability: span tracing, trace export, critical-path analysis.

The keynote's question — "where should I compute?" — is only
answerable if every placement decision, transfer, and task attempt is
inspectable after the fact. This package provides that layer:

- :class:`Span` / :class:`Tracer` — begin/end interval records with
  parents and attributes, emitted by the continuum scheduler (task
  lifecycle with the estimate that drove each placement), the flow
  network (per-transfer spans with bytes/route/achieved rate), FaaS
  endpoints and autoscalers (queueing, cold starts, scaling), and the
  real-execution dataflow kernel (submit/run/memo),
- :func:`to_chrome_trace` / :func:`validate_chrome_trace` — export to
  the Chrome trace-event JSON both ``chrome://tracing`` and Perfetto
  render, plus the schema check CI runs on it,
- :func:`critical_path` — the longest gating chain of a completed run,
  decomposed into compute / transfer / queue-wait fractions,
- :class:`MetricsRegistry` with labeled :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` families, the run-scoped
  :class:`MetricsRecorder` sampling gauges on sim-clock ticks, and the
  Prometheus / canonical-JSON exporters — the unified instrument panel
  every subsystem (kernel, netsim, scheduler, resilience, cache,
  control plane) emits into.

Tracing and metrics are opt-in and zero-interference: an instrumented
simulation produces bit-identical placements and makespans to a bare
one, because tracers and recorders only read the clock, never schedule
events.
"""

from repro.observe.chrome import to_chrome_trace, validate_chrome_trace
from repro.observe.critical_path import CriticalPath, PathStep, critical_path
from repro.observe.metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    STATE_SCHEMA,
    SUITE_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
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
from repro.observe.recorder import MetricsRecorder, series_counter_events
from repro.observe.span import Span
from repro.observe.tracer import NULL_SPAN, NULL_TRACER, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "to_chrome_trace",
    "validate_chrome_trace",
    "CriticalPath",
    "PathStep",
    "critical_path",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsRecorder",
    "series_counter_events",
    "NULL_METRICS",
    "METRICS_SCHEMA",
    "STATE_SCHEMA",
    "SUITE_SCHEMA",
    "current_registry",
    "set_registry",
    "use_registry",
    "log_buckets",
    "to_prometheus",
    "snapshot_to_json",
    "load_snapshot",
    "validate_snapshot",
    "validate_suite",
]
