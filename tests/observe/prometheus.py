"""The exposition tests' reference parser for ``to_prometheus`` output.

A deliberately minimal parser for round-trip testing: it only
understands the library's own exporter, not arbitrary exposition text.
"""

from __future__ import annotations

import re

_SERIES_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$")
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def _unescape_label(v: str) -> str:
    return (v.replace(r"\n", "\n").replace(r'\"', '"')
             .replace(r"\\", "\\"))


def parse_prometheus(text: str) -> dict:
    """Parse exposition text back into
    ``{name: {"type", "series": {label_tuple: value-or-histogram}}}``."""
    out: dict[str, dict] = {}
    types: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            mname, _, kind = rest.partition(" ")
            types[mname] = kind.strip()
            out.setdefault(mname, {"type": kind.strip(), "series": {}})
            continue
        if line.startswith("#"):
            continue
        m = _SERIES_RE.match(line)
        assert m is not None, f"unparseable exposition line {line!r}"
        sname, labels_s, value_s = (m.group("name"), m.group("labels"),
                                    m.group("value"))
        labels = {}
        if labels_s:
            for lm in _LABEL_PAIR_RE.finditer(labels_s):
                labels[lm.group("name")] = _unescape_label(lm.group("value"))
        base, suffix = sname, ""
        for suf in ("_bucket", "_sum", "_count"):
            trimmed = sname[:-len(suf)] if sname.endswith(suf) else None
            if trimmed and types.get(trimmed) == "histogram":
                base, suffix = trimmed, suf
                break
        doc = out.setdefault(base, {"type": types.get(base, "untyped"),
                                    "series": {}})
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        if doc["type"] == "histogram":
            series = doc["series"].setdefault(
                key, {"buckets": {}, "sum": None, "count": None})
            if suffix == "_bucket":
                series["buckets"][float(labels["le"])] = (
                    int(float(value_s)))
            elif suffix == "_sum":
                series["sum"] = float(value_s)
            elif suffix == "_count":
                series["count"] = int(float(value_s))
        else:
            doc["series"][key] = float(value_s)
    return out
