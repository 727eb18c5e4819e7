"""Outage schedules: site failures and link brownouts."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.continuum.topology import Topology
from repro.errors import ConfigurationError
from repro.utils.rng import RngRegistry
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class SiteOutage:
    """One site dark on ``[start_s, start_s + duration_s)``.

    Tasks staging or executing there when it begins are interrupted and
    re-placed by the scheduler; the site accepts no new work until it
    recovers.
    """

    site: str
    start_s: float
    duration_s: float

    def __post_init__(self):
        check_non_negative("start_s", self.start_s)
        check_positive("duration_s", self.duration_s)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class LinkBrownout:
    """A link's bandwidth multiplied by ``factor`` (< 1) for an interval."""

    a: str
    b: str
    start_s: float
    duration_s: float
    factor: float

    def __post_init__(self):
        check_non_negative("start_s", self.start_s)
        check_positive("duration_s", self.duration_s)
        if not 0 < self.factor < 1:
            raise ConfigurationError(
                f"brownout factor must be in (0, 1), got {self.factor}"
            )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class OutageSchedule:
    """A reproducible set of failures to inject into one run."""

    site_outages: list[SiteOutage] = field(default_factory=list)
    link_brownouts: list[LinkBrownout] = field(default_factory=list)

    def add(self, event: SiteOutage | LinkBrownout) -> "OutageSchedule":
        if isinstance(event, SiteOutage):
            self.site_outages.append(event)
        elif isinstance(event, LinkBrownout):
            self.link_brownouts.append(event)
        else:
            raise ConfigurationError(f"unknown failure event {event!r}")
        return self

    @property
    def empty(self) -> bool:
        return not self.site_outages and not self.link_brownouts

    def outages_for(self, site: str) -> list[SiteOutage]:
        return sorted(
            (o for o in self.site_outages if o.site == site),
            key=lambda o: o.start_s,
        )

    def validate_against(self, topology: Topology) -> None:
        """Every referenced site/link must exist."""
        for outage in self.site_outages:
            topology.site(outage.site)
        for brownout in self.link_brownouts:
            topology.link(brownout.a, brownout.b)


def renewal_windows(rng, rate: float, horizon_s: float,
                    mean_duration_s: float):
    """Yield the ``(onset, duration)`` windows of one alternating
    renewal process on ``[0, horizon_s)``: exponential gaps at ``rate``,
    exponential durations of mean ``mean_duration_s`` (at least 1 ms).
    The next onset is drawn after the previous window ends, so windows
    never overlap, and only when the generator is resumed, so draws the
    caller makes from ``rng`` between windows keep their place in the
    stream."""
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon_s:
            return
        duration = max(float(rng.exponential(mean_duration_s)), 1e-3)
        yield t, duration
        t += duration


def poisson_outages(
    topology: Topology,
    *,
    rate_per_site_per_s: float,
    horizon_s: float,
    mean_duration_s: float,
    sites: list[str] | None = None,
    rngs: RngRegistry | None = None,
) -> OutageSchedule:
    """Independent Poisson outage processes per site.

    Each chosen site fails at exponential intervals with exponential
    repair times — the textbook availability model. Overlapping outages
    of one site are merged by construction (next failure is drawn after
    the previous repair). Duplicate names in ``sites`` are collapsed to
    their first occurrence — a repeated name must not run a second,
    independent failure process whose outages overlap the first
    (first-seen order is kept so the RNG draw sequence, and therefore
    every schedule generated for the de-duplicated prefix, is unchanged).
    """
    check_positive("rate_per_site_per_s", rate_per_site_per_s)
    check_positive("horizon_s", horizon_s)
    check_positive("mean_duration_s", mean_duration_s)
    rng = (rngs or RngRegistry(0)).stream("outages")
    schedule = OutageSchedule()
    names = list(sites) if sites is not None else topology.site_names
    names = list(dict.fromkeys(names))
    for name in names:
        topology.site(name)
        for t, duration in renewal_windows(rng, rate_per_site_per_s,
                                           horizon_s, mean_duration_s):
            schedule.add(SiteOutage(name, t, duration))
    return schedule
