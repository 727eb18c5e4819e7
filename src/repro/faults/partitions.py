"""Network partitions of the federation *control plane*.

Site outages and brownouts hit the data plane — compute and links that
carry workload bytes. Partitions hit the metadata plane: the N control
sites replicating the catalog/registry log can lose contact with each
other while every data-plane link keeps flowing. A partition window
splits the control sites into blocks that cannot exchange messages;
healing removes the split and lets follower catch-up converge the logs.

Windows are seeded and non-overlapping (the next split is drawn after
the previous heal), so a partition campaign composes deterministically
with the outage/brownout/degraded stages of a
:class:`~repro.faults.campaign.ChaosCampaign`.

Styles
------
- ``leader`` — isolate whoever leads *at window start* (resolved live
  by the control plane, since leadership is dynamic),
- ``minority`` — isolate a seeded ``floor(n/2)``-node island (the
  largest split that can never commit),
- ``single`` — isolate one seeded non-specific node (a flapping WAN
  uplink at one federation site).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults.outages import renewal_windows
from repro.utils.rng import RngRegistry
from repro.utils.validation import check_non_negative, check_positive

PARTITION_STYLES = ("leader", "minority", "single")


@dataclass(frozen=True)
class PartitionWindow:
    """One control-plane split on ``[start_s, end_s)``.

    ``island`` holds the isolated node ids for ``minority``/``single``
    styles; for ``leader`` it is empty and the control plane isolates
    the current leader when the window opens.
    """

    start_s: float
    end_s: float
    style: str = "minority"
    island: tuple[int, ...] = ()

    def __post_init__(self):
        check_non_negative("start_s", self.start_s)
        if self.end_s <= self.start_s:
            raise ConfigurationError(
                f"partition end_s must exceed start_s, got "
                f"[{self.start_s}, {self.end_s})"
            )
        if self.style not in PARTITION_STYLES:
            raise ConfigurationError(
                f"unknown partition style {self.style!r}; "
                f"known: {PARTITION_STYLES}"
            )
        if self.style != "leader" and not self.island:
            raise ConfigurationError(
                f"{self.style!r} partition needs an explicit island"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class PartitionSchedule:
    """A reproducible sequence of control-plane splits for one run."""

    windows: list[PartitionWindow] = field(default_factory=list)

    def add(self, window: PartitionWindow) -> "PartitionSchedule":
        if not isinstance(window, PartitionWindow):
            raise ConfigurationError(f"not a partition window: {window!r}")
        self.windows.append(window)
        return self

    @property
    def empty(self) -> bool:
        return not self.windows

    def __len__(self) -> int:
        return len(self.windows)

    def validate_against(self, n_control_sites: int) -> None:
        """Every island member must be a valid control-site id."""
        if n_control_sites < 1:
            raise ConfigurationError(
                f"n_control_sites must be >= 1, got {n_control_sites}"
            )
        for window in self.windows:
            bad = [i for i in window.island
                   if not 0 <= i < n_control_sites]
            if bad:
                raise ConfigurationError(
                    f"partition island references unknown control sites "
                    f"{bad} (cluster has {n_control_sites})"
                )


def poisson_partitions(
    n_control_sites: int,
    *,
    rate_per_s: float,
    horizon_s: float,
    mean_duration_s: float,
    styles: tuple[str, ...] = PARTITION_STYLES,
    rngs: RngRegistry | None = None,
) -> PartitionSchedule:
    """A seeded Poisson process of non-overlapping partition windows.

    Onsets arrive at exponential intervals with exponential durations
    (the next onset is drawn after the previous heal, so windows never
    overlap — one split at a time is the interesting regime; nested
    splits of a 5-node cluster just make more minorities). The style of
    each window and its island membership come from the same
    ``"partitions"`` stream, so the whole schedule is a pure function of
    ``(seed, n_control_sites, knobs)``.
    """
    check_positive("rate_per_s", rate_per_s)
    check_positive("horizon_s", horizon_s)
    check_positive("mean_duration_s", mean_duration_s)
    if n_control_sites < 2:
        raise ConfigurationError(
            f"partitions need >= 2 control sites, got {n_control_sites}"
        )
    if not styles:
        raise ConfigurationError("poisson_partitions needs >= 1 style")
    for style in styles:
        if style not in PARTITION_STYLES:
            raise ConfigurationError(
                f"unknown partition style {style!r}; "
                f"known: {PARTITION_STYLES}"
            )
    rng = (rngs or RngRegistry(0)).stream("partitions")
    schedule = PartitionSchedule()
    minority = max(1, n_control_sites // 2)
    for t, duration in renewal_windows(rng, rate_per_s, horizon_s,
                                       mean_duration_s):
        style = styles[int(rng.integers(len(styles)))]
        if style == "leader":
            island = ()
        else:
            size = minority if style == "minority" else 1
            picks = rng.permutation(n_control_sites)[:size]
            island = tuple(sorted(int(i) for i in picks))
        schedule.add(PartitionWindow(t, t + duration, style, island))
    return schedule
