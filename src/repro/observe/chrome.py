"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

:func:`to_chrome_trace` turns a tracer's span trees into the JSON
trace-event format both viewers consume: each span becomes a matched
``B``/``E`` duration pair, instants become ``i`` events, and every
span *tree* gets its own thread lane (``tid`` = root span id) so
sibling trees that overlap in time never violate the per-thread stack
discipline the format requires. Timestamps are microseconds.

:func:`validate_chrome_trace` is the schema check CI leans on:
monotonic non-negative timestamps, every ``B`` matched by an ``E`` of
the same name on the same lane, and no lane left with an open stack.
"""

from __future__ import annotations

import math

from repro.errors import ObserveError
from repro.observe.recorder import series_counter_events
from repro.observe.span import Span


def _roots_and_children(spans: list[Span]):
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children


def _tree_events(span: Span, children: dict, tid: int, out: list) -> None:
    base = {
        "name": span.name, "cat": span.category,
        "pid": 0, "tid": tid,
    }
    args = {"status": span.status, **span.attrs}
    if span.instant:
        out.append({**base, "ph": "i", "s": "t",
                    "ts": span.begin_s * 1e6, "args": args})
        return
    out.append({**base, "ph": "B", "ts": span.begin_s * 1e6, "args": args})
    for child in children.get(span.span_id, ()):
        _tree_events(child, children, tid, out)
    out.append({**base, "ph": "E", "ts": span.end_s * 1e6, "args": {}})


def to_chrome_trace(tracer_or_spans, *, recorder=None) -> dict:
    """Export closed spans as a Chrome trace-event document.

    Accepts a :class:`~repro.observe.tracer.Tracer` or a span list;
    open spans are skipped (export after the run completes). Pass a
    :class:`~repro.observe.recorder.MetricsRecorder` — or a plain
    ``name -> [(t, v), ...]`` timeseries mapping such as
    ``MetricsRegistry.timeseries`` — as ``recorder`` to interleave the
    sampled timeseries as counter events (``"ph": "C"``), which render
    as per-metric area charts above the span lanes. Returns a
    JSON-serializable dict — ``json.dump`` it and load the file in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    spans = getattr(tracer_or_spans, "spans", tracer_or_spans)
    closed = [s for s in spans if s.closed]
    roots, children = _roots_and_children(closed)
    events: list[dict] = []
    for root in roots:
        # parentless instants share lane 0; span trees get their own lane
        tid = 0 if root.instant else root.span_id
        if not root.instant:
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "ts": 0.0, "args": {"name": f"{root.category}:{root.name}"},
            })
        _tree_events(root, children, tid, events)
    if recorder is not None:
        events.extend(series_counter_events(getattr(recorder, "series",
                                                    recorder)))
    meta = [e for e in events if e["ph"] == "M"]
    timed = [e for e in events if e["ph"] != "M"]
    timed.sort(key=lambda e: e["ts"])  # stable: per-lane order preserved
    return {"traceEvents": meta + timed, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> int:
    """Check ``doc`` against the trace-event schema; returns the event
    count. Raises :class:`ObserveError` on the first violation:
    missing/malformed fields, negative or non-finite or non-monotonic
    timestamps, unmatched or misnested begin/end pairs, counter (``C``)
    events without a non-empty dict of finite numeric series.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ObserveError("trace document must be a dict with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ObserveError("'traceEvents' must be a list")
    stacks: dict[tuple, list[str]] = {}
    last_ts = -math.inf
    for i, event in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ObserveError(f"event {i} missing {key!r}")
        ph = event["ph"]
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            raise ObserveError(f"event {i} has bad timestamp {ts!r}")
        if ts < last_ts:
            raise ObserveError(
                f"event {i} timestamp {ts} precedes previous {last_ts} "
                f"(non-monotonic)"
            )
        last_ts = ts
        lane = (event["pid"], event["tid"])
        if ph == "B":
            stacks.setdefault(lane, []).append(event["name"])
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                raise ObserveError(
                    f"event {i}: 'E' for {event['name']!r} with no open "
                    f"'B' on lane {lane}"
                )
            opened = stack.pop()
            if opened != event["name"]:
                raise ObserveError(
                    f"event {i}: 'E' for {event['name']!r} closes "
                    f"{opened!r} (misnested) on lane {lane}"
                )
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ObserveError(
                    f"event {i}: counter event needs a non-empty 'args' "
                    f"dict of numeric series"
                )
            for k, v in args.items():
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise ObserveError(
                        f"event {i}: counter series {k!r} has non-numeric "
                        f"value {v!r}"
                    )
        elif ph != "i":
            raise ObserveError(f"event {i} has unsupported phase {ph!r}")
    for lane, stack in stacks.items():
        if stack:
            raise ObserveError(
                f"lane {lane} ended with unclosed spans: {stack}"
            )
    return len(events)
