"""Topology zoo: seeded parameter dataclasses that emit wired topologies.

All experiments before E14 ran on one hand-built continuum; the zoo adds
the scenario-diversity axis. Each family is a frozen parameter dataclass
whose :meth:`build` emits a fully-wired, validated :class:`Topology` —
construct the same params, get the same graph, byte for byte. The style
follows the topology-as-matrix test harnesses of the journal-pdc
experiments (SNIPPETS.md snippet 2): families are *functions of
parameters*, latencies carry a small seeded per-link jitter so two
instances of one family are siblings rather than clones, and per-node
uptime schedules ride alongside as first-class data.

Families
--------
- ``clique``        — every site talks to every site directly,
- ``chain``         — a line; the worst diameter per site count,
- ``ring``          — a cycle; two disjoint routes between any pair,
- ``grid``          — a 2-D mesh with a cloud core and an edge rim,
- ``fat-tree``      — the k-ary datacenter classic (hosts, edge and
  aggregation layers, core), with capacity widening toward the core,
- ``multi-region``  — geo-distributed regions of tiered edge/fog/cloud
  sites meshed over priced WAN links (speed-of-light latency).

Every family guarantees at least one EDGE and one CLOUD site so tier
strategies and E1-style local-vs-offload probes are always well-posed.

Churn layer
-----------
:class:`DutyCycleParams` describes duty-cycled nodes (edge devices that
sleep and wake on seeded schedules); :func:`compile_duty_cycles` turns
it into an :class:`~repro.faults.outages.OutageSchedule` whose dark
windows the scheduler's existing fault machinery injects — churn
composes with brownouts, chaos campaigns, and resilience policies for
free. Per-site RNG streams make the compiled schedule independent of
site iteration order. :func:`churn_preset` names the intensities E14
sweeps (``none``/``low``/``medium``/``high``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.continuum.builders import make_site, _scaled_link
from repro.continuum.link import Link, propagation_latency
from repro.continuum.tiers import Tier
from repro.continuum.topology import Topology
from repro.errors import ConfigurationError, TopologyError
from repro.faults.outages import OutageSchedule, SiteOutage
from repro.utils.rng import RngRegistry
from repro.utils.units import Gbps, MILLISECOND, Mbps
from repro.utils.validation import check_positive


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _jittered(base_s: float, jitter: float, rng) -> float:
    """Latency with a seeded relative jitter in ``[1-jitter, 1+jitter)``.

    One uniform draw per link, in construction order, so a family
    instance is a pure function of its params.
    """
    if jitter == 0.0:
        return base_s
    return base_s * (1.0 + jitter * (2.0 * float(rng.uniform()) - 1.0))


def _line_tiers(n: int) -> list[Tier]:
    """Tier assignment for linear families (chain/ring/clique): the
    data end is EDGE, the far end is CLOUD, interior alternates
    EDGE/FOG — every family keeps both a periphery and a core."""
    tiers = []
    for i in range(n):
        if i == 0:
            tiers.append(Tier.EDGE)
        elif i == n - 1:
            tiers.append(Tier.CLOUD)
        else:
            tiers.append(Tier.FOG if i % 2 else Tier.EDGE)
    return tiers


class _ZooParams:
    """Mixin: every family dataclass builds through one seeded path."""

    family: str = ""

    def build(self) -> Topology:
        topo = self._build(RngRegistry(self.seed).stream(f"zoo:{self.family}"))
        topo.validate()
        return topo


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliqueParams(_ZooParams):
    """Complete graph: the all-pairs-direct best case for routing."""

    family = "clique"
    n_sites: int = 6
    link_latency_s: float = 10 * MILLISECOND
    link_bandwidth_Bps: float = 100 * Mbps
    latency_jitter: float = 0.2
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0
    seed: int = 0

    def _build(self, rng) -> Topology:
        if self.n_sites < 2:
            raise TopologyError(f"clique needs >= 2 sites, got {self.n_sites}")
        topo = Topology(f"clique-{self.n_sites}")
        for i, tier in enumerate(_line_tiers(self.n_sites)):
            topo.add_site(make_site(f"c{i}", tier))
        for i in range(self.n_sites):
            for j in range(i + 1, self.n_sites):
                topo.add_link(
                    f"c{i}", f"c{j}",
                    _scaled_link(
                        _jittered(self.link_latency_s, self.latency_jitter,
                                  rng),
                        self.link_bandwidth_Bps, 0.0,
                        self.latency_scale, self.bandwidth_scale,
                    ),
                )
        return topo


@dataclass(frozen=True)
class ChainParams(_ZooParams):
    """A line of sites: maximum diameter, every route shares links."""

    family = "chain"
    n_sites: int = 6
    link_latency_s: float = 10 * MILLISECOND
    link_bandwidth_Bps: float = 100 * Mbps
    latency_jitter: float = 0.2
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0
    seed: int = 0

    def _build(self, rng) -> Topology:
        if self.n_sites < 2:
            raise TopologyError(f"chain needs >= 2 sites, got {self.n_sites}")
        topo = Topology(f"chain-{self.n_sites}")
        for i, tier in enumerate(_line_tiers(self.n_sites)):
            topo.add_site(make_site(f"c{i}", tier))
        for i in range(self.n_sites - 1):
            topo.add_link(
                f"c{i}", f"c{i + 1}",
                _scaled_link(
                    _jittered(self.link_latency_s, self.latency_jitter, rng),
                    self.link_bandwidth_Bps, 0.0,
                    self.latency_scale, self.bandwidth_scale,
                ),
            )
        return topo


@dataclass(frozen=True)
class RingParams(_ZooParams):
    """A cycle: every pair has two disjoint routes."""

    family = "ring"
    n_sites: int = 8
    link_latency_s: float = 10 * MILLISECOND
    link_bandwidth_Bps: float = 100 * Mbps
    latency_jitter: float = 0.2
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0
    seed: int = 0

    def _build(self, rng) -> Topology:
        if self.n_sites < 3:
            raise TopologyError(f"ring needs >= 3 sites, got {self.n_sites}")
        topo = Topology(f"ring-{self.n_sites}")
        for i, tier in enumerate(_line_tiers(self.n_sites)):
            topo.add_site(make_site(f"c{i}", tier))
        for i in range(self.n_sites):
            topo.add_link(
                f"c{i}", f"c{(i + 1) % self.n_sites}",
                _scaled_link(
                    _jittered(self.link_latency_s, self.latency_jitter, rng),
                    self.link_bandwidth_Bps, 0.0,
                    self.latency_scale, self.bandwidth_scale,
                ),
            )
        return topo


@dataclass(frozen=True)
class GridParams(_ZooParams):
    """2-D mesh. Tier follows Chebyshev distance from the center cell:
    the center is CLOUD, its neighbors FOG, the rim EDGE — a metro area
    with a datacenter downtown."""

    family = "grid"
    rows: int = 3
    cols: int = 3
    link_latency_s: float = 5 * MILLISECOND
    link_bandwidth_Bps: float = 100 * Mbps
    latency_jitter: float = 0.2
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0
    seed: int = 0

    def _build(self, rng) -> Topology:
        if self.rows < 2 or self.cols < 2:
            raise TopologyError(
                f"grid needs >= 2x2, got {self.rows}x{self.cols}"
            )
        topo = Topology(f"grid-{self.rows}x{self.cols}")
        ci, cj = (self.rows - 1) // 2, (self.cols - 1) // 2
        tiers = {}
        for i in range(self.rows):
            for j in range(self.cols):
                d = max(abs(i - ci), abs(j - cj))
                tiers[(i, j)] = (Tier.CLOUD if d == 0
                                 else Tier.FOG if d == 1 else Tier.EDGE)
        if not any(t == Tier.EDGE for t in tiers.values()):
            tiers[(self.rows - 1, self.cols - 1)] = Tier.EDGE  # tiny grids
        for i in range(self.rows):
            for j in range(self.cols):
                topo.add_site(make_site(f"g{i}-{j}", tiers[(i, j)]))
        for i in range(self.rows):
            for j in range(self.cols):
                for di, dj in ((0, 1), (1, 0)):
                    ni, nj = i + di, j + dj
                    if ni < self.rows and nj < self.cols:
                        topo.add_link(
                            f"g{i}-{j}", f"g{ni}-{nj}",
                            _scaled_link(
                                _jittered(self.link_latency_s,
                                          self.latency_jitter, rng),
                                self.link_bandwidth_Bps, 0.0,
                                self.latency_scale, self.bandwidth_scale,
                            ),
                        )
        return topo


@dataclass(frozen=True)
class FatTreeParams(_ZooParams):
    """k-ary fat-tree: ``(k/2)^2`` CLOUD cores, ``k`` pods of ``k/2``
    FOG aggregation and ``k/2`` EDGE leaf sites, each leaf serving
    ``k/2`` DEVICE hosts. Capacity widens by ``uplink_multiplier`` per
    layer toward the core (a continuum reading of the datacenter
    classic: peripheral access is thin, the spine is fat)."""

    family = "fat-tree"
    k: int = 4
    access_bandwidth_Bps: float = 100 * Mbps
    uplink_multiplier: float = 4.0
    link_latency_s: float = 2 * MILLISECOND
    latency_jitter: float = 0.2
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0
    seed: int = 0

    def _build(self, rng) -> Topology:
        if self.k < 2 or self.k % 2:
            raise TopologyError(f"fat-tree arity must be even >= 2, "
                                f"got {self.k}")
        check_positive("uplink_multiplier", self.uplink_multiplier)
        half = self.k // 2
        topo = Topology(f"fat-tree-{self.k}")
        cores = [topo.add_site(make_site(f"core{i}", Tier.CLOUD))
                 for i in range(half * half)]
        for p in range(self.k):
            for a in range(half):
                topo.add_site(make_site(f"p{p}-agg{a}", Tier.FOG))
            for e in range(half):
                topo.add_site(make_site(f"p{p}-edge{e}", Tier.EDGE))
                for h in range(half):
                    topo.add_site(make_site(f"p{p}-h{e}-{h}", Tier.DEVICE))

        def link(bandwidth: float) -> Link:
            return _scaled_link(
                _jittered(self.link_latency_s, self.latency_jitter, rng),
                bandwidth, 0.0, self.latency_scale, self.bandwidth_scale,
            )

        up = self.uplink_multiplier
        for p in range(self.k):
            for e in range(half):
                for h in range(half):    # host -> leaf: access capacity
                    topo.add_link(f"p{p}-h{e}-{h}", f"p{p}-edge{e}",
                                  link(self.access_bandwidth_Bps))
                for a in range(half):    # leaf -> aggregation
                    topo.add_link(f"p{p}-edge{e}", f"p{p}-agg{a}",
                                  link(self.access_bandwidth_Bps * up))
            for a in range(half):        # aggregation -> its core group
                for c in range(half):
                    topo.add_link(f"p{p}-agg{a}", cores[a * half + c].name,
                                  link(self.access_bandwidth_Bps * up * up))
        return topo


@dataclass(frozen=True)
class MultiRegionParams(_ZooParams):
    """Geo-distributed continuum: ``n_regions`` regions on a WAN circle,
    each a tiered pocket of DEVICE/EDGE/FOG sites around a regional
    CLOUD; clouds mesh over priced, speed-of-light WAN links. Site
    scatter within a region is seeded, so two seeds give sibling
    deployments with different local distances."""

    family = "multi-region"
    n_regions: int = 3
    devices_per_region: int = 2
    edges_per_region: int = 2
    fogs_per_region: int = 1
    region_radius_km: float = 50.0
    wan_radius_km: float = 2500.0
    access_bandwidth_Bps: float = 100 * Mbps
    metro_bandwidth_Bps: float = 1 * Gbps
    backbone_bandwidth_Bps: float = 10 * Gbps
    egress_usd_per_gb: float = 0.09
    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0
    seed: int = 0

    def _build(self, rng) -> Topology:
        if self.n_regions < 1:
            raise TopologyError(f"need >= 1 region, got {self.n_regions}")
        if self.edges_per_region < 1:
            raise TopologyError("each region needs >= 1 edge site")
        topo = Topology(f"multi-region-{self.n_regions}")

        def scatter(cx: float, cy: float) -> tuple[float, float]:
            return (cx + float(rng.uniform(-self.region_radius_km,
                                           self.region_radius_km)),
                    cy + float(rng.uniform(-self.region_radius_km,
                                           self.region_radius_km)))

        def wire(a: str, b: str, bandwidth: float, floor_s: float,
                 usd: float = 0.0) -> None:
            dist = topo.site(a).distance_km(topo.site(b))
            topo.add_link(a, b, _scaled_link(
                max(propagation_latency(dist), floor_s), bandwidth, usd,
                self.latency_scale, self.bandwidth_scale,
            ))

        clouds = []
        for r in range(self.n_regions):
            angle = 2.0 * math.pi * r / self.n_regions
            cx = self.wan_radius_km * math.cos(angle)
            cy = self.wan_radius_km * math.sin(angle)
            cloud = topo.add_site(make_site(f"r{r}-cloud", Tier.CLOUD,
                                            location_km=(cx, cy)))
            clouds.append(cloud)
            fogs = [topo.add_site(make_site(f"r{r}-fog{f}", Tier.FOG,
                                            location_km=scatter(cx, cy)))
                    for f in range(self.fogs_per_region)]
            edges = [topo.add_site(make_site(f"r{r}-edge{e}", Tier.EDGE,
                                             location_km=scatter(cx, cy)))
                     for e in range(self.edges_per_region)]
            devices = [topo.add_site(make_site(f"r{r}-dev{d}", Tier.DEVICE,
                                               location_km=scatter(cx, cy)))
                       for d in range(self.devices_per_region)]
            # device -> nearest-by-index edge (wireless), edge -> fog
            # (metro fibre) or straight to the cloud when fog-less
            for d, dev in enumerate(devices):
                wire(dev.name, edges[d % len(edges)].name,
                     self.access_bandwidth_Bps, 1 * MILLISECOND)
            uplinks = fogs or [cloud]
            for e, edge in enumerate(edges):
                wire(edge.name, uplinks[e % len(uplinks)].name,
                     self.metro_bandwidth_Bps, 2 * MILLISECOND)
            for fog in fogs:
                wire(fog.name, cloud.name, self.backbone_bandwidth_Bps,
                     5 * MILLISECOND, usd=self.egress_usd_per_gb)
        for i, a in enumerate(clouds):   # WAN mesh between regions
            for b in clouds[i + 1:]:
                wire(a.name, b.name, self.backbone_bandwidth_Bps,
                     10 * MILLISECOND, usd=self.egress_usd_per_gb)
        return topo


TOPOLOGY_FAMILIES: dict[str, type] = {
    cls.family: cls
    for cls in (CliqueParams, ChainParams, RingParams, GridParams,
                FatTreeParams, MultiRegionParams)
}


def zoo_topology(family: str, **params) -> Topology:
    """Build one zoo topology by family name.

    ``params`` override the family dataclass defaults (``seed``,
    ``bandwidth_scale``, sizes, ...); unknown names raise.
    """
    cls = TOPOLOGY_FAMILIES.get(family)
    if cls is None:
        raise TopologyError(
            f"unknown topology family {family!r}; "
            f"known: {sorted(TOPOLOGY_FAMILIES)}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(params) - known
    if unknown:
        raise TopologyError(
            f"unknown {family!r} parameters {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    return cls(**params).build()


# ---------------------------------------------------------------------------
# Uptime / churn layer
# ---------------------------------------------------------------------------

CHURN_INTENSITIES = ("none", "low", "medium", "high")

_CHURN_PRESETS = {
    # (period_s, on_fraction): how often nodes cycle, and how much of
    # each cycle they are awake
    "low": (300.0, 0.90),
    "medium": (180.0, 0.75),
    "high": (90.0, 0.55),
}


@dataclass(frozen=True)
class DutyCycleParams:
    """Per-node duty-cycle churn: nodes of the chosen tiers sleep and
    wake on seeded schedules.

    Each affected node is awake for ``on_fraction`` of every
    ``period_s`` cycle and dark for the rest; a per-node seeded phase
    staggers the fleet, and ``jitter`` varies each individual on/off
    window so cycles drift apart rather than locking step. Only
    peripheral tiers churn by default — duty-cycling is a battery/power
    phenomenon of the periphery, and an always-on core guarantees the
    scheduler is never left with zero candidate sites.
    """

    period_s: float = 180.0
    on_fraction: float = 0.75
    jitter: float = 0.25
    horizon_s: float = 3600.0
    tiers: tuple[Tier, ...] = (Tier.DEVICE, Tier.EDGE)
    seed: int = 0

    def __post_init__(self):
        check_positive("period_s", self.period_s)
        check_positive("horizon_s", self.horizon_s)
        if not 0.0 < self.on_fraction <= 1.0:
            raise ConfigurationError(
                f"on_fraction must be in (0, 1], got {self.on_fraction}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        object.__setattr__(
            self, "tiers", tuple(Tier.parse(t) for t in self.tiers)
        )


def duty_cycle_windows(params: DutyCycleParams, rng) -> list[tuple[float, float]]:
    """One node's dark windows ``(start_s, duration_s)`` over the horizon.

    The node starts awake, first sleeps after a seeded phase plus one
    on-window, and alternates jittered on/off windows from there.
    """
    if params.on_fraction >= 1.0:
        return []
    on_base = params.on_fraction * params.period_s
    off_base = params.period_s - on_base

    def jittered(base: float) -> float:
        return base * (1.0 + params.jitter * (2.0 * float(rng.uniform()) - 1.0))

    windows = []
    t = float(rng.uniform(0.0, params.period_s))  # phase: staggers the fleet
    t += jittered(on_base)
    while t < params.horizon_s:
        duration = max(jittered(off_base), 1e-3)
        windows.append((t, duration))
        t += duration + jittered(on_base)
    return windows


def compile_duty_cycles(topology: Topology,
                        params: DutyCycleParams) -> OutageSchedule:
    """Compile duty cycles over ``topology`` into an ``OutageSchedule``.

    Dark windows become :class:`SiteOutage` events, so churn flows
    through the scheduler's existing outage machinery (interrupt,
    re-place, recover) and composes with brownouts, chaos campaigns,
    and resilience policies. Each node draws from its own named RNG
    stream (``churn:<site>``), making the schedule a pure function of
    ``(topology, params)`` — independent of site iteration order.
    """
    rngs = RngRegistry(params.seed)
    schedule = OutageSchedule()
    for site in topology.sites:
        if site.tier not in params.tiers:
            continue
        rng = rngs.stream(f"churn:{site.name}")
        for start, duration in duty_cycle_windows(params, rng):
            schedule.add(SiteOutage(site.name, start, duration))
    return schedule


def churn_preset(intensity: str, *, seed: int = 0,
                 horizon_s: float = 3600.0) -> DutyCycleParams | None:
    """The named churn levels E14 sweeps; ``"none"`` means no churn."""
    if intensity == "none":
        return None
    try:
        period_s, on_fraction = _CHURN_PRESETS[intensity]
    except KeyError:
        raise ConfigurationError(
            f"unknown churn intensity {intensity!r}; "
            f"known: {list(CHURN_INTENSITIES)}"
        ) from None
    return DutyCycleParams(period_s=period_s, on_fraction=on_fraction,
                           horizon_s=horizon_s, seed=seed)
