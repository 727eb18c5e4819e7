"""Unit constants and formatting helpers.

Conventions used throughout the library:

- **time** is in seconds (float),
- **data sizes** are in bytes (float; fractions allowed mid-computation),
- **bandwidth** is in bytes/second,
- **compute demand** is in abstract *work units*; a site processes
  ``speed`` work units per second.

Network-equipment marketing uses bits/second; the ``Kbps``/``Mbps``/...
constants convert those to bytes/second so that ``10 * Gbps`` reads
naturally while the stored value stays in library units.
"""

from __future__ import annotations

# Data sizes (bytes). Decimal (SI) prefixes, matching how transfer tools
# like Globus report volumes.
KB: float = 1e3
MB: float = 1e6
GB: float = 1e9
TB: float = 1e12

# Bandwidth (bytes/second) from bits/second marketing units.
Kbps: float = 1e3 / 8.0
Mbps: float = 1e6 / 8.0
Gbps: float = 1e9 / 8.0
Tbps: float = 1e12 / 8.0

# Time (seconds).
MICROSECOND: float = 1e-6
MILLISECOND: float = 1e-3
SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit.

    >>> format_time(0.0042)
    '4.200 ms'
    """
    s = float(seconds)
    sign = "-" if s < 0 else ""
    s = abs(s)
    if s >= HOUR:
        return f"{sign}{s / HOUR:.2f} h"
    if s >= MINUTE:
        return f"{sign}{s / MINUTE:.2f} min"
    if s >= 1.0:
        return f"{sign}{s:.3f} s"
    if s >= MILLISECOND:
        return f"{sign}{s / MILLISECOND:.3f} ms"
    return f"{sign}{s / MICROSECOND:.3f} us"
