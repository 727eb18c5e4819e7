"""Unified metrics: labeled counters / gauges / histograms + exporters.

One :class:`MetricsRegistry` serves one run (or one merged suite). The
design goals mirror the tracer's zero-interference contract and add a
determinism contract of their own:

- **Clock-passive.** Instruments never schedule simulation events and
  never read wall clocks; every number in a snapshot is derived from
  simulated time or event counts, so the same (experiment, seed) always
  produces a byte-identical snapshot.
- **Exactly mergeable.** Counter values and histogram sums accumulate
  into Shewchuk partials (error-free float expansions), and histogram
  buckets are *fixed* log-spaced bounds chosen at declaration time.
  Addition of partials is associative and commutative in exact
  arithmetic, so merging per-shard registries in any grouping yields
  bit-identical totals to a single whole-run registry — which is what
  lets ``--jobs 1/2/4`` produce the same snapshot byte-for-byte.
- **Disabled by default.** ``NULL_METRICS`` is a shared disabled
  registry; instrumented code checks ``registry.enabled`` once at setup
  and skips all metric work when off.

Two exporters: :func:`to_prometheus` (text exposition format, scrapable
by any Prometheus server) and :meth:`MetricsRegistry.snapshot` (a
canonical JSON document with sorted keys, schema-versioned, suitable for
committing next to experiment tables).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from contextlib import contextmanager

from repro.errors import ObserveError

#: Schema tag for canonical JSON snapshots (bump on incompatible change).
METRICS_SCHEMA = "repro-metrics/1"

#: Schema tag for mergeable state dumps shipped between bench workers.
STATE_SCHEMA = "repro-metrics-state/1"

#: Schema tag for suite files: one snapshot per experiment.
SUITE_SCHEMA = "repro-metrics-suite/1"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# ---------------------------------------------------------------------------
# exact accumulation
# ---------------------------------------------------------------------------

class ExactSum:
    """Error-free running float sum (Shewchuk's expansion algorithm).

    The list of partials represents the *exact* real-valued sum of every
    value ever added, so :meth:`merge` of two accumulators equals adding
    their inputs in any interleaving, and :attr:`value` (one correctly
    rounded ``math.fsum``) is grouping-independent.
    """

    __slots__ = ("partials",)

    def __init__(self, partials=None):
        self.partials: list[float] = list(partials) if partials else []

    def add(self, x: float) -> None:
        partials = self.partials
        x = float(x)
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for p in other.partials:
            self.add(p)

    @property
    def value(self) -> float:
        return math.fsum(self.partials)

    def state(self) -> list[float]:
        return list(self.partials)


def _check_finite(name: str, v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise ObserveError(f"metric {name!r} given non-finite value {v!r}")
    return v


# ---------------------------------------------------------------------------
# instruments (the per-label-set children)
# ---------------------------------------------------------------------------

class Counter:
    """Monotonically increasing count; ``inc`` accepts any finite
    non-negative amount."""

    __slots__ = ("name", "_sum")

    def __init__(self, name: str):
        self.name = name
        self._sum = ExactSum()

    def inc(self, amount: float = 1.0) -> None:
        amount = _check_finite(self.name, amount)
        if amount < 0:
            raise ObserveError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self._sum.add(amount)

    @property
    def value(self) -> float:
        return self._sum.value


class Gauge:
    """Point-in-time value; last write wins (also across shard merges,
    in deterministic merge order)."""

    __slots__ = ("name", "_value", "updates")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self._value = _check_finite(self.name, value)
        self.updates += 1

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bound histogram with cumulative ``le`` export semantics.

    Bounds are chosen at declaration time (log-spaced), never from the
    data, so two shards of the same metric always agree on buckets and
    merging is plain integer addition.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "_sum")

    def __init__(self, name: str, bounds: tuple[float, ...]):
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self._sum = ExactSum()

    def observe(self, value: float) -> None:
        value = _check_finite(self.name, value)
        idx = bisect_left(self.bounds, value)
        if idx == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[idx] += 1
        self.count += 1
        self._sum.add(value)

    @property
    def sum(self) -> float:
        return self._sum.value

    def cumulative(self) -> list[int]:
        """Cumulative counts per bound (Prometheus ``le`` buckets),
        excluding the ``+Inf`` bucket (which equals :attr:`count`)."""
        out, total = [], 0
        for c in self.counts:
            total += c
            out.append(total)
        return out


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced bucket bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ObserveError(
            f"invalid histogram buckets (start={start}, factor={factor}, "
            f"count={count})")
    return tuple(start * factor ** i for i in range(count))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its per-label-set children; an unlabeled
    family's single child is ``family.labels()``."""

    def __init__(self, name: str, kind: str, help: str,
                 label_names: tuple[str, ...],
                 bucket_spec: tuple[float, float, int] | None = None):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.bucket_spec = bucket_spec
        self.bounds = (log_buckets(*bucket_spec)
                       if bucket_spec is not None else None)
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels):
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ObserveError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[k]) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.name, self.bounds)
            else:
                child = _TYPES[self.kind](self.name)
            self._children[key] = child
        return child

    def series(self):
        """(label_values, child) pairs in sorted label order."""
        return sorted(self._children.items())


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class MetricsRegistry:
    """Holds every metric family of a run; disabled registries are inert.

    ``counter``/``gauge``/``histogram`` are idempotent get-or-create:
    re-declaring a metric with the same signature returns the existing
    family, re-declaring with a conflicting type/labels/buckets raises.
    """

    def __init__(self, *, enabled: bool = True, keep_timeseries: bool = False):
        self.enabled = enabled
        #: When set, the continuum scheduler stores the run recorder's
        #: sampled timeseries here (single-run tools: chaos/trace CLIs).
        self.keep_timeseries = keep_timeseries
        self.timeseries: dict[str, list[tuple[float, float]]] = {}
        self._families: dict[str, MetricFamily] = {}

    # -- declaration ----------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                labels: tuple[str, ...],
                bucket_spec: tuple[float, float, int] | None = None
                ) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ObserveError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        for ln in labels:
            if not _LABEL_RE.match(ln):
                raise ObserveError(f"invalid label name {ln!r} on {name!r}")
        fam = self._families.get(name)
        if fam is not None:
            if (fam.kind != kind or fam.label_names != labels
                    or fam.bucket_spec != bucket_spec):
                raise ObserveError(
                    f"metric {name!r} re-declared with a different "
                    f"signature ({fam.kind}/{fam.label_names} vs "
                    f"{kind}/{labels})")
            if help and not fam.help:
                fam.help = help
            return fam
        fam = MetricFamily(name, kind, help, labels, bucket_spec)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (), *,
                  start: float = 1e-3, factor: float = 2.0,
                  count: int = 40) -> MetricFamily:
        return self._family(name, "histogram", help, labels,
                            (float(start), float(factor), int(count)))

    # -- harvest --------------------------------------------------------------
    def emit(self, rows, labels: dict | None = None, *,
             kind: str = "counter") -> None:
        """The one stats harvest loop: each ``(name, help, value)`` row
        adds ``value`` to a counter (``kind="gauge"``: sets a gauge),
        all under ``labels``. No-op when disabled."""
        if not self.enabled:
            return
        labels = labels or {}
        for name, help_, value in rows:
            child = self._family(name, kind, help_,
                                 tuple(labels)).labels(**labels)
            if kind == "gauge":
                child.set(value)
            else:
                child.inc(value)

    # -- retrieval ------------------------------------------------------------
    def families(self):
        """Families in sorted name order."""
        return sorted(self._families.items())

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def __len__(self) -> int:
        return len(self._families)

    # -- canonical JSON snapshot ---------------------------------------------
    def snapshot(self) -> dict:
        """Canonical plain-data form: sorted names, sorted label sets,
        schema-versioned. Byte-identical across reruns of the same
        deterministic workload."""
        metrics = {}
        for name, fam in self.families():
            series = []
            for key, child in fam.series():
                entry = {"labels": dict(zip(fam.label_names, key))}
                if fam.kind == "histogram":
                    entry["buckets"] = child.cumulative()
                    entry["count"] = child.count
                    entry["sum"] = child.sum
                else:
                    entry["value"] = child.value
                series.append(entry)
            doc = {
                "type": fam.kind,
                "help": fam.help,
                "label_names": list(fam.label_names),
                "series": series,
            }
            if fam.kind == "histogram":
                doc["le"] = list(fam.bounds)
            metrics[name] = doc
        out = {"schema": METRICS_SCHEMA, "metrics": metrics}
        if self.timeseries:
            out["timeseries"] = {
                name: [[t, v] for t, v in pts]
                for name, pts in sorted(self.timeseries.items())
            }
        return out

    # -- mergeable state ------------------------------------------------------
    def dump_state(self) -> dict:
        """Lossless, mergeable form: keeps exact-sum partials so merged
        registries reproduce whole-run float totals bit-for-bit."""
        metrics = {}
        for name, fam in self.families():
            series = []
            for key, child in fam.series():
                entry = {"labels": list(key)}
                if fam.kind == "histogram":
                    entry["counts"] = list(child.counts)
                    entry["overflow"] = child.overflow
                    entry["count"] = child.count
                    entry["sum_partials"] = child._sum.state()
                elif fam.kind == "counter":
                    entry["partials"] = child._sum.state()
                else:
                    entry["value"] = child.value
                    entry["updates"] = child.updates
                series.append(entry)
            metrics[name] = {
                "type": fam.kind,
                "help": fam.help,
                "label_names": list(fam.label_names),
                "bucket_spec": (list(fam.bucket_spec)
                                if fam.bucket_spec else None),
                "series": series,
            }
        return {
            "schema": STATE_SCHEMA,
            "metrics": metrics,
            "timeseries": {
                name: [[t, v] for t, v in pts]
                for name, pts in sorted(self.timeseries.items())
            },
        }

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`dump_state` document into this registry.

        Counters and histograms add exactly (grouping-independent);
        gauges take the incoming value when the incoming shard ever set
        them (last-writer-wins in merge order).
        """
        if state.get("schema") != STATE_SCHEMA:
            raise ObserveError(
                f"cannot merge metrics state with schema "
                f"{state.get('schema')!r} (expected {STATE_SCHEMA!r})")
        for name, doc in sorted(state.get("metrics", {}).items()):
            kind = doc["type"]
            labels = tuple(doc["label_names"])
            spec = doc.get("bucket_spec")
            if kind == "histogram":
                fam = self.histogram(name, doc.get("help", ""), labels,
                                     start=spec[0], factor=spec[1],
                                     count=int(spec[2]))
            elif kind == "counter":
                fam = self.counter(name, doc.get("help", ""), labels)
            else:
                fam = self.gauge(name, doc.get("help", ""), labels)
            for entry in doc["series"]:
                child = fam.labels(**dict(zip(labels, entry["labels"])))
                if kind == "histogram":
                    for i, c in enumerate(entry["counts"]):
                        child.counts[i] += c
                    child.overflow += entry["overflow"]
                    child.count += entry["count"]
                    child._sum.merge(ExactSum(entry["sum_partials"]))
                elif kind == "counter":
                    child._sum.merge(ExactSum(entry["partials"]))
                else:
                    if entry["updates"] > 0:
                        child._value = float(entry["value"])
                        child.updates += int(entry["updates"])
        for name, pts in sorted(state.get("timeseries", {}).items()):
            self.timeseries[name] = [(t, v) for t, v in pts]


# ---------------------------------------------------------------------------
# ambient registry (mirrors the NULL_TRACER pattern)
# ---------------------------------------------------------------------------

#: Shared disabled registry; the default everywhere.
NULL_METRICS = MetricsRegistry(enabled=False)

_current: MetricsRegistry = NULL_METRICS


def current_registry() -> MetricsRegistry:
    """The ambient registry instrumented code defaults to (disabled
    unless a caller installed one with :func:`use_registry`)."""
    return _current


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` as ambient (``None`` restores the disabled
    default); returns the previous one."""
    global _current
    prev = _current
    _current = registry if registry is not None else NULL_METRICS
    return prev


@contextmanager
def use_registry(registry: MetricsRegistry):
    """``with use_registry(reg): ...`` — scoped ambient install."""
    prev = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(prev)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label(v: str) -> str:
    return v.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _label_str(names, values, extra=None) -> str:
    pairs = [(n, v) for n, v in zip(names, values)]
    if extra:
        pairs = list(extra.items()) + pairs
    if not pairs:
        return ""
    inner = ",".join(f'{n}="{_escape_label(str(v))}"' for n, v in pairs)
    return "{" + inner + "}"


def to_prometheus(registry_or_snapshot, *, extra_labels: dict | None = None
                  ) -> str:
    """Render a registry (or its :meth:`~MetricsRegistry.snapshot`) in
    the Prometheus text exposition format. ``extra_labels`` are
    prepended to every series (e.g. ``{"experiment": "E13"}``)."""
    if isinstance(registry_or_snapshot, MetricsRegistry):
        snap = registry_or_snapshot.snapshot()
    else:
        snap = registry_or_snapshot
    validate_snapshot(snap)
    lines: list[str] = []
    for name, doc in sorted(snap["metrics"].items()):
        kind = doc["type"]
        label_names = doc["label_names"]
        if doc.get("help"):
            lines.append(f"# HELP {name} {doc['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in doc["series"]:
            values = [entry["labels"][k] for k in label_names]
            if kind == "histogram":
                for bound, cum in zip(doc["le"], entry["buckets"]):
                    ls = _label_str(label_names + ["le"],
                                    values + [_fmt_value(bound)],
                                    extra_labels)
                    lines.append(f"{name}_bucket{ls} {cum}")
                ls = _label_str(label_names + ["le"], values + ["+Inf"],
                                extra_labels)
                lines.append(f"{name}_bucket{ls} {entry['count']}")
                base = _label_str(label_names, values, extra_labels)
                lines.append(f"{name}_sum{base} {_fmt_value(entry['sum'])}")
                lines.append(f"{name}_count{base} {entry['count']}")
            else:
                ls = _label_str(label_names, values, extra_labels)
                lines.append(f"{name}{ls} {_fmt_value(entry['value'])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def validate_snapshot(doc) -> dict:
    """Structural check of a metrics snapshot; raises one-line
    :class:`ObserveError` on anything malformed."""
    if not isinstance(doc, dict):
        raise ObserveError("metrics snapshot is not a JSON object")
    schema = doc.get("schema")
    if schema != METRICS_SCHEMA:
        raise ObserveError(
            f"unknown metrics snapshot schema {schema!r} "
            f"(expected {METRICS_SCHEMA!r})")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ObserveError("metrics snapshot missing 'metrics' object")
    for name, mdoc in metrics.items():
        if not isinstance(mdoc, dict) or "type" not in mdoc:
            raise ObserveError(f"metric {name!r} entry missing 'type'")
        kind = mdoc["type"]
        if kind not in _TYPES:
            raise ObserveError(f"metric {name!r} has unknown type {kind!r}")
        if not isinstance(mdoc.get("series"), list):
            raise ObserveError(f"metric {name!r} missing 'series' list")
        if kind == "histogram" and not isinstance(mdoc.get("le"), list):
            raise ObserveError(
                f"histogram {name!r} missing 'le' bucket bounds")
        for entry in mdoc["series"]:
            if not isinstance(entry, dict) or "labels" not in entry:
                raise ObserveError(f"metric {name!r} series entry "
                                   f"missing 'labels'")
            if kind == "histogram":
                if ("buckets" not in entry or "count" not in entry
                        or "sum" not in entry):
                    raise ObserveError(
                        f"histogram {name!r} series entry incomplete")
                if len(entry["buckets"]) != len(mdoc["le"]):
                    raise ObserveError(
                        f"histogram {name!r} bucket count mismatch")
            elif "value" not in entry:
                raise ObserveError(
                    f"metric {name!r} series entry missing 'value'")
    return doc


def snapshot_to_json(doc: dict) -> str:
    """Canonical serialization: sorted keys, stable separators, trailing
    newline — byte-identical for equal documents."""
    return json.dumps(doc, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def load_snapshot(path: str) -> dict:
    """Read + validate a snapshot file; one-line errors for missing,
    corrupt, or unknown-schema files."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ObserveError(f"metrics file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ObserveError(
            f"metrics file {path} is not valid JSON ({exc.msg} at "
            f"line {exc.lineno})") from None
    except OSError as exc:
        raise ObserveError(f"cannot read metrics file {path}: "
                           f"{exc.strerror or exc}") from None
    try:
        if isinstance(doc, dict) and doc.get("schema") == SUITE_SCHEMA:
            validate_suite(doc)
        else:
            validate_snapshot(doc)
    except ObserveError as exc:
        raise ObserveError(f"{path}: {exc}") from None
    return doc


def validate_suite(doc) -> dict:
    """Structural check of a suite metrics file (one snapshot per
    experiment under ``experiments``)."""
    if not isinstance(doc, dict) or doc.get("schema") != SUITE_SCHEMA:
        raise ObserveError(
            f"unknown metrics suite schema "
            f"{doc.get('schema') if isinstance(doc, dict) else doc!r} "
            f"(expected {SUITE_SCHEMA!r})")
    experiments = doc.get("experiments")
    if not isinstance(experiments, dict) or not experiments:
        raise ObserveError("metrics suite file has no 'experiments'")
    for exp, snap in sorted(experiments.items()):
        try:
            validate_snapshot(snap)
        except ObserveError as exc:
            raise ObserveError(f"experiment {exp}: {exc}") from None
    return doc
