"""Chaos campaigns: layered, seeded failure schedules for one run.

A :class:`ChaosCampaign` composes every fault class the library models
into one reproducible plan:

- **site outages** — Poisson dark windows (compute lost, storage kept),
- **link brownouts** — Poisson bandwidth-degradation windows per link,
- **degraded-site windows** — intervals during which task attempts at a
  site fail transiently or straggle with elevated probability (a box
  that is *up* but sick: thermal throttling, a noisy neighbour, a
  flapping NIC),
- **transient task faults / stragglers** — background rates that apply
  everywhere, all the time,
- **corrupted transfers** — a per-attempt integrity-failure probability
  for the transfer service,
- **control-plane partitions** — splits among the federation's
  metadata-replication sites (see :mod:`repro.faults.partitions`);
  rendered only when :meth:`ChaosCampaign.build` is told how many
  control sites the run replicates across.

Determinism is the design center.  Scheduled events (outages,
brownouts, degraded windows) are drawn once from named RNG streams.
Task-level fates are *keyed*, not streamed: the verdict for
``(task, attempt, site)`` depends only on the campaign seed and that
key, so two runs under different recovery policies expose each task
attempt to the identical fate — the recovery-policy shootout (E13)
compares policies against the same adversary, not different dice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.continuum.topology import Topology
from repro.errors import ConfigurationError
from repro.faults.outages import (
    LinkBrownout,
    OutageSchedule,
    poisson_outages,
    renewal_windows,
)
from repro.faults.partitions import (
    PARTITION_STYLES,
    PartitionSchedule,
    poisson_partitions,
)
from repro.utils.rng import RngRegistry, derive_seed
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class TaskFate:
    """What chaos does to one execution attempt.

    ``slowdown`` multiplies the attempt's execution time (1.0 = none);
    ``fail_after_frac`` aborts the attempt after that fraction of its
    (possibly slowed) execution, surfacing as a transient task fault
    the scheduler must retry.
    """

    slowdown: float = 1.0
    fail_after_frac: float | None = None

    @property
    def benign(self) -> bool:
        return self.slowdown == 1.0 and self.fail_after_frac is None


@dataclass(frozen=True)
class TaskChaos:
    """Deterministic per-attempt fate injector.

    ``degraded`` maps site name to merged ``(start_s, end_s)`` windows
    during which the elevated probabilities apply; outside them the
    base rates do.  Fates are keyed on ``(task, attempt, site)`` — see
    the module docstring for why.
    """

    seed: int = 0
    base_fail_prob: float = 0.0
    base_straggler_prob: float = 0.0
    degraded_fail_prob: float = 0.0
    degraded_straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    degraded: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        check_probability("base_fail_prob", self.base_fail_prob)
        check_probability("base_straggler_prob", self.base_straggler_prob)
        check_probability("degraded_fail_prob", self.degraded_fail_prob)
        check_probability("degraded_straggler_prob",
                          self.degraded_straggler_prob)
        if self.straggler_factor < 1.0:
            raise ConfigurationError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )

    @property
    def empty(self) -> bool:
        """True when no attempt can ever be harmed."""
        degraded_active = bool(self.degraded) and (
            self.degraded_fail_prob > 0 or self.degraded_straggler_prob > 0
        )
        return (self.base_fail_prob == 0.0
                and self.base_straggler_prob == 0.0
                and not degraded_active)

    def is_degraded(self, site: str, now: float) -> bool:
        for start, end in self.degraded.get(site, ()):
            if start <= now < end:
                return True
        return False

    def fate(self, task: str, attempt: int, site: str, now: float) -> TaskFate:
        """The (reproducible) verdict for one execution attempt."""
        if self.is_degraded(site, now):
            fail_p = self.degraded_fail_prob
            straggle_p = self.degraded_straggler_prob
        else:
            fail_p = self.base_fail_prob
            straggle_p = self.base_straggler_prob
        if fail_p == 0.0 and straggle_p == 0.0:
            return TaskFate()
        rng = np.random.default_rng(
            derive_seed(self.seed, f"fate:{task}:{attempt}:{site}")
        )
        # fixed draw order keeps fates stable as probabilities vary
        u_fail, u_straggle, u_frac = rng.random(3)
        slowdown = self.straggler_factor if u_straggle < straggle_p else 1.0
        fail_after = (0.1 + 0.8 * u_frac) if u_fail < fail_p else None
        return TaskFate(slowdown=slowdown, fail_after_frac=fail_after)


def poisson_brownouts(
    topology: Topology,
    *,
    rate_per_link_per_s: float,
    horizon_s: float,
    mean_duration_s: float,
    factor: float,
    rngs: RngRegistry | None = None,
) -> list[LinkBrownout]:
    """Independent Poisson brownout processes per link.

    Each link degrades to ``factor`` of its bandwidth at exponential
    intervals with exponential durations; windows of one link never
    overlap by construction (next onset is drawn after the previous
    recovery).
    """
    check_positive("rate_per_link_per_s", rate_per_link_per_s)
    check_positive("horizon_s", horizon_s)
    check_positive("mean_duration_s", mean_duration_s)
    if not 0 < factor < 1:
        raise ConfigurationError(
            f"brownout factor must be in (0, 1), got {factor}"
        )
    registry = rngs or RngRegistry(0)
    events: list[LinkBrownout] = []
    for a, b, _link in topology.links():
        rng = registry.stream(f"brownouts:{a}--{b}")
        for t, duration in renewal_windows(rng, rate_per_link_per_s,
                                           horizon_s, mean_duration_s):
            events.append(LinkBrownout(a, b, t, duration, factor))
    return events


@dataclass
class CampaignPlan:
    """One campaign rendered against one topology — ready to run."""

    outages: OutageSchedule
    task_chaos: TaskChaos
    transfer_failure_prob: float = 0.0
    partitions: PartitionSchedule = field(default_factory=PartitionSchedule)

    @property
    def site_outage_count(self) -> int:
        return len(self.outages.site_outages)

    @property
    def brownout_count(self) -> int:
        return len(self.outages.link_brownouts)

    @property
    def degraded_window_count(self) -> int:
        return sum(len(w) for w in self.task_chaos.degraded.values())

    @property
    def partition_count(self) -> int:
        return len(self.partitions)


@dataclass(frozen=True)
class ChaosCampaign:
    """A seeded, composable chaos schedule generator.

    Every layer is optional (rate 0 disables it); :meth:`build` renders
    the campaign against a topology into a :class:`CampaignPlan`.  The
    same ``(campaign, topology, seed)`` triple always renders the same
    plan — rerunning an experiment re-creates the exact adversary.
    """

    seed: int = 0
    horizon_s: float = 2_000.0
    # site outages
    outage_rate_per_site_per_s: float = 0.0
    outage_mean_duration_s: float = 15.0
    # link brownouts
    brownout_rate_per_link_per_s: float = 0.0
    brownout_mean_duration_s: float = 20.0
    brownout_factor: float = 0.25
    # degraded-site windows (up but sick)
    degraded_rate_per_site_per_s: float = 0.0
    degraded_mean_duration_s: float = 40.0
    degraded_fail_prob: float = 0.85
    degraded_straggler_prob: float = 0.5
    # background task faults
    base_fail_prob: float = 0.0
    base_straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    # corrupted transfers
    transfer_failure_prob: float = 0.0
    # control-plane partitions (rendered only when ``build`` is told
    # the control-site count — data-plane-only runs have no metadata
    # cluster to split)
    partition_rate_per_s: float = 0.0
    partition_mean_duration_s: float = 30.0
    partition_styles: tuple[str, ...] = PARTITION_STYLES

    def __post_init__(self):
        check_positive("horizon_s", self.horizon_s)
        check_non_negative("outage_rate_per_site_per_s",
                           self.outage_rate_per_site_per_s)
        check_non_negative("brownout_rate_per_link_per_s",
                           self.brownout_rate_per_link_per_s)
        check_non_negative("degraded_rate_per_site_per_s",
                           self.degraded_rate_per_site_per_s)
        check_probability("transfer_failure_prob", self.transfer_failure_prob)
        check_non_negative("partition_rate_per_s", self.partition_rate_per_s)
        for style in self.partition_styles:
            if style not in PARTITION_STYLES:
                raise ConfigurationError(
                    f"unknown partition style {style!r}; "
                    f"known: {PARTITION_STYLES}"
                )

    def build(self, topology: Topology,
              n_control_sites: int | None = None) -> CampaignPlan:
        """Render the campaign against ``topology`` (reproducibly).

        ``n_control_sites`` sizes the metadata cluster the partition
        layer splits; when omitted the partition layer stays empty
        (there is nothing to partition in a single-copy run)."""
        rngs = RngRegistry(self.seed)
        outages = OutageSchedule()
        if self.outage_rate_per_site_per_s > 0:
            outages = poisson_outages(
                topology,
                rate_per_site_per_s=self.outage_rate_per_site_per_s,
                horizon_s=self.horizon_s,
                mean_duration_s=self.outage_mean_duration_s,
                rngs=rngs,
            )
        if self.brownout_rate_per_link_per_s > 0:
            for brownout in poisson_brownouts(
                topology,
                rate_per_link_per_s=self.brownout_rate_per_link_per_s,
                horizon_s=self.horizon_s,
                mean_duration_s=self.brownout_mean_duration_s,
                factor=self.brownout_factor,
                rngs=rngs,
            ):
                outages.add(brownout)
        degraded: dict[str, tuple[tuple[float, float], ...]] = {}
        if self.degraded_rate_per_site_per_s > 0:
            for name in topology.site_names:
                windows = tuple(
                    (t, t + duration) for t, duration in renewal_windows(
                        rngs.stream(f"degraded:{name}"),
                        self.degraded_rate_per_site_per_s,
                        self.horizon_s,
                        self.degraded_mean_duration_s,
                    ))
                if windows:
                    degraded[name] = windows
        chaos = TaskChaos(
            seed=self.seed,
            base_fail_prob=self.base_fail_prob,
            base_straggler_prob=self.base_straggler_prob,
            degraded_fail_prob=self.degraded_fail_prob,
            degraded_straggler_prob=self.degraded_straggler_prob,
            straggler_factor=self.straggler_factor,
            degraded=degraded,
        )
        outages.validate_against(topology)
        partitions = PartitionSchedule()
        if self.partition_rate_per_s > 0 and n_control_sites is not None:
            partitions = poisson_partitions(
                n_control_sites,
                rate_per_s=self.partition_rate_per_s,
                horizon_s=self.horizon_s,
                mean_duration_s=self.partition_mean_duration_s,
                styles=self.partition_styles,
                rngs=rngs,
            )
        return CampaignPlan(
            outages=outages,
            task_chaos=chaos,
            transfer_failure_prob=self.transfer_failure_prob,
            partitions=partitions,
        )

    # -- presets ----------------------------------------------------------------
    @classmethod
    def preset(cls, intensity: str, *, seed: int = 0,
               horizon_s: float = 2_000.0) -> "ChaosCampaign":
        """Named escalation levels used by E13 and ``repro chaos``.

        ``low`` — occasional outages and mild degraded windows;
        ``medium`` — adds brownouts, stragglers, corrupted transfers;
        ``high`` — frequent outages, long sick windows, heavy tails.
        """
        presets = {
            "low": dict(
                outage_rate_per_site_per_s=1 / 800.0,
                degraded_rate_per_site_per_s=1 / 600.0,
                degraded_mean_duration_s=30.0,
                degraded_straggler_prob=0.3,
                base_straggler_prob=0.02,
            ),
            "medium": dict(
                outage_rate_per_site_per_s=1 / 400.0,
                brownout_rate_per_link_per_s=1 / 500.0,
                degraded_rate_per_site_per_s=1 / 250.0,
                degraded_mean_duration_s=50.0,
                degraded_straggler_prob=0.4,
                base_fail_prob=0.02,
                base_straggler_prob=0.04,
                transfer_failure_prob=0.02,
            ),
            "high": dict(
                outage_rate_per_site_per_s=1 / 500.0,
                outage_mean_duration_s=15.0,
                brownout_rate_per_link_per_s=1 / 250.0,
                brownout_factor=0.15,
                # long sick windows with a high duty cycle: the hazard
                # that dominates "high" is a box that stays up but
                # fails almost every attempt — the failure mode circuit
                # breakers exist for.  Windows are long relative to the
                # breaker reset timeout, so a breaker shields most of
                # each window while naive retry burns through it.
                degraded_rate_per_site_per_s=1 / 120.0,
                degraded_mean_duration_s=90.0,
                degraded_fail_prob=0.95,
                degraded_straggler_prob=0.5,
                base_fail_prob=0.03,
                base_straggler_prob=0.08,
                straggler_factor=8.0,
                transfer_failure_prob=0.05,
            ),
        }
        try:
            knobs = presets[intensity]
        except KeyError:
            raise ConfigurationError(
                f"unknown campaign intensity {intensity!r}; "
                f"known: {sorted(presets)}"
            ) from None
        return cls(seed=seed, horizon_s=horizon_s, **knobs)


CAMPAIGN_INTENSITIES = ("low", "medium", "high")
