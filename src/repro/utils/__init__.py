"""Shared utilities: units, seeded RNG streams, statistics, tables,
atomic file writes.

These helpers are deliberately dependency-light; everything else in the
library builds on them.
"""

from repro.utils.units import (
    KB,
    MB,
    GB,
    TB,
    Kbps,
    Mbps,
    Gbps,
    Tbps,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    MINUTE,
    HOUR,
    format_time,
)
from repro.utils.atomic import atomic_open, write_atomic
from repro.utils.rng import RngRegistry, derive_seed
from repro.utils.stats import percentile, summarize
from repro.utils.tables import ascii_table, format_row
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "Kbps",
    "Mbps",
    "Gbps",
    "Tbps",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "MINUTE",
    "HOUR",
    "format_time",
    "RngRegistry",
    "derive_seed",
    "percentile",
    "summarize",
    "ascii_table",
    "format_row",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "atomic_open",
    "write_atomic",
]
