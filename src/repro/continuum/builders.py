"""Topology builders: common continuum shapes and named presets.

Every builder accepts ``bandwidth_scale`` and ``latency_scale`` multipliers
so experiments can sweep "what if the network were 10x faster/slower"
(the Gilder axis of E1/E5/E10) without reconstructing site inventories.
"""

from __future__ import annotations

import numpy as np

from repro.continuum.link import Link, propagation_latency
from repro.continuum.power import PowerModel
from repro.continuum.pricing import PricingModel
from repro.continuum.site import Site
from repro.continuum.tiers import Tier
from repro.continuum.topology import Topology
from repro.errors import TopologyError
from repro.utils.rng import RngRegistry
from repro.utils.units import GB, Gbps, MILLISECOND, Mbps

# Default hardware profile per tier: (speed per slot, slots, memory,
# power model, pricing model). Speeds are in reference-core work units/s.
TIER_PROFILES: dict[Tier, dict] = {
    Tier.DEVICE: dict(
        speed=0.25, slots=1, memory_bytes=2 * GB,
        power=PowerModel(busy_watts=3.0),
        pricing=PricingModel(),
    ),
    Tier.EDGE: dict(
        speed=1.0, slots=4, memory_bytes=16 * GB,
        power=PowerModel(busy_watts=20.0),
        pricing=PricingModel(),
    ),
    Tier.FOG: dict(
        speed=2.0, slots=16, memory_bytes=64 * GB,
        power=PowerModel(busy_watts=100.0),
        pricing=PricingModel(),
    ),
    Tier.CLOUD: dict(
        speed=4.0, slots=64, memory_bytes=256 * GB,
        power=PowerModel(busy_watts=150.0),
        pricing=PricingModel(usd_per_core_hour=0.05),
    ),
    Tier.HPC: dict(
        speed=8.0, slots=256, memory_bytes=1024 * GB,
        power=PowerModel(busy_watts=300.0),
        pricing=PricingModel(usd_per_core_hour=0.02),
    ),
}


def make_site(name: str, tier: Tier | str, **overrides) -> Site:
    """Create a site with tier-default hardware, overridable per field."""
    tier = Tier.parse(tier)
    profile = dict(TIER_PROFILES[tier])
    profile.update(overrides)
    return Site(name=name, tier=tier, **profile)


def _scaled_link(
    latency_s: float,
    bandwidth_Bps: float,
    usd_per_gb: float,
    latency_scale: float,
    bandwidth_scale: float,
) -> Link:
    return Link(
        latency_s=latency_s * latency_scale,
        bandwidth_Bps=bandwidth_Bps * bandwidth_scale,
        usd_per_gb=usd_per_gb,
    )


def edge_cloud_pair(
    *,
    edge_speed: float = 1.0,
    cloud_speed: float = 8.0,
    bandwidth_Bps: float = 1 * Gbps,
    latency_s: float = 25 * MILLISECOND,
    cloud_specializations: dict | None = None,
    egress_usd_per_gb: float = 0.0,
) -> Topology:
    """Two-site topology for the Gilder crossover experiments (E1, E10):
    one edge site holding the data, one faster (or specialized) remote."""
    topo = Topology("edge-cloud-pair")
    topo.add_site(make_site("edge", Tier.EDGE, speed=edge_speed))
    topo.add_site(
        make_site(
            "cloud",
            Tier.CLOUD,
            speed=cloud_speed,
            specializations=cloud_specializations or {},
            pricing=PricingModel(usd_per_core_hour=0.05),
        )
    )
    topo.add_link("edge", "cloud", Link(latency_s, bandwidth_Bps,
                                        usd_per_gb=egress_usd_per_gb))
    topo.validate()
    return topo


def hierarchical_continuum(
    *,
    n_devices: int = 8,
    n_edge: int = 4,
    n_fog: int = 2,
    n_cloud: int = 1,
    n_hpc: int = 1,
    latency_scale: float = 1.0,
    bandwidth_scale: float = 1.0,
    seed: int = 0,
) -> Topology:
    """The canonical device→edge→fog→cloud/HPC hierarchy.

    Children attach round-robin to parents of the next tier; fog sites
    link to every cloud and HPC site; clouds and HPC centers are meshed.
    Link classes follow typical deployments: wireless at the periphery,
    metro fibre mid-tier, fat science-DMZ pipes at the core.
    """
    for label, n in [("devices", n_devices), ("edge", n_edge), ("fog", n_fog)]:
        if n < 1:
            raise TopologyError(f"need at least one of each tier, {label}={n}")
    if n_cloud < 0 or n_hpc < 0 or n_cloud + n_hpc < 1:
        raise TopologyError("need at least one central (cloud or hpc) site")

    rng = RngRegistry(seed).stream("topology")
    topo = Topology("hierarchical-continuum")

    devices = [topo.add_site(make_site(f"dev{i}", Tier.DEVICE,
                                       location_km=(float(rng.uniform(0, 10)),
                                                    float(rng.uniform(0, 10)))))
               for i in range(n_devices)]
    edges = [topo.add_site(make_site(f"edge{i}", Tier.EDGE,
                                     location_km=(float(rng.uniform(0, 10)),
                                                  float(rng.uniform(0, 10)))))
             for i in range(n_edge)]
    fogs = [topo.add_site(make_site(f"fog{i}", Tier.FOG,
                                    location_km=(float(rng.uniform(0, 50)),
                                                 float(rng.uniform(0, 50)))))
            for i in range(n_fog)]
    clouds = [topo.add_site(make_site(f"cloud{i}", Tier.CLOUD,
                                      location_km=(1000.0 + 500.0 * i, 800.0)))
              for i in range(n_cloud)]
    hpcs = [topo.add_site(make_site(f"hpc{i}", Tier.HPC,
                                    location_km=(1500.0, -700.0 - 500.0 * i)))
            for i in range(n_hpc)]

    def lat(a: Site, b: Site, floor: float) -> float:
        return max(propagation_latency(a.distance_km(b)), floor)

    # device -> edge: wireless, ~1 ms floor, 100 Mbps
    for i, dev in enumerate(devices):
        edge = edges[i % n_edge]
        topo.add_link(dev.name, edge.name,
                      _scaled_link(lat(dev, edge, 1 * MILLISECOND), 100 * Mbps,
                                   0.0, latency_scale, bandwidth_scale))
    # edge -> fog: metro fibre, ~2 ms floor, 1 Gbps
    for i, edge in enumerate(edges):
        fog = fogs[i % n_fog]
        topo.add_link(edge.name, fog.name,
                      _scaled_link(lat(edge, fog, 2 * MILLISECOND), 1 * Gbps,
                                   0.0, latency_scale, bandwidth_scale))
    # fog -> cloud: WAN, 10 Gbps, cloud egress priced
    for fog in fogs:
        for cloud in clouds:
            topo.add_link(fog.name, cloud.name,
                          _scaled_link(lat(fog, cloud, 10 * MILLISECOND),
                                       10 * Gbps, 0.09,
                                       latency_scale, bandwidth_scale))
        # fog -> hpc: science DMZ, 100 Gbps
        for hpc in hpcs:
            topo.add_link(fog.name, hpc.name,
                          _scaled_link(lat(fog, hpc, 10 * MILLISECOND),
                                       100 * Gbps, 0.0,
                                       latency_scale, bandwidth_scale))
    # cloud <-> hpc mesh
    for cloud in clouds:
        for hpc in hpcs:
            topo.add_link(cloud.name, hpc.name,
                          _scaled_link(lat(cloud, hpc, 15 * MILLISECOND),
                                       10 * Gbps, 0.09,
                                       latency_scale, bandwidth_scale))
    topo.validate()
    return topo


def geo_random_continuum(
    n_sites: int = 20,
    *,
    area_km: float = 2000.0,
    connect_radius_km: float = 900.0,
    bandwidth_Bps: float = 1 * Gbps,
    latency_scale: float = 1.0,
    bandwidth_scale: float = 1.0,
    seed: int = 0,
) -> Topology:
    """Random geometric continuum: sites scattered in a square, linked
    when within ``connect_radius_km``; latency from fibre distance.
    Tiers are drawn with a periphery-heavy distribution. A spanning-tree
    pass guarantees connectivity."""
    if n_sites < 2:
        raise TopologyError(f"need at least 2 sites, got {n_sites}")
    rng = RngRegistry(seed).stream("geo-topology")
    topo = Topology(f"geo-{n_sites}")
    tiers = [Tier.DEVICE, Tier.EDGE, Tier.FOG, Tier.CLOUD, Tier.HPC]
    weights = np.array([0.35, 0.3, 0.2, 0.1, 0.05])
    sites: list[Site] = []
    for i in range(n_sites):
        tier = tiers[int(rng.choice(len(tiers), p=weights))]
        site = make_site(
            f"g{i}", tier,
            location_km=(float(rng.uniform(0, area_km)),
                         float(rng.uniform(0, area_km))),
        )
        sites.append(topo.add_site(site))

    def link_between(a: Site, b: Site) -> Link:
        latency = max(propagation_latency(a.distance_km(b)), 1 * MILLISECOND)
        return _scaled_link(latency, bandwidth_Bps, 0.0,
                            latency_scale, bandwidth_scale)

    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            if a.distance_km(b) <= connect_radius_km:
                topo.add_link(a.name, b.name, link_between(a, b))

    # Guarantee connectivity: join the first two components by their
    # closest pair of sites until one component is left.
    while len(comps := topo.components()) > 1:
        a_names, b_names = comps[0], comps[1]
        best = None
        for an in a_names:
            for bn in b_names:
                d = topo.site(an).distance_km(topo.site(bn))
                if best is None or d < best[0]:
                    best = (d, an, bn)
        _, an, bn = best
        topo.add_link(an, bn, link_between(topo.site(an), topo.site(bn)))
    topo.validate()
    return topo


def smart_city(*, latency_scale: float = 1.0, bandwidth_scale: float = 1.0) -> Topology:
    """Preset: a small smart-city deployment — cameras (devices with no
    spare compute to speak of), street-cabinet edge boxes with inference
    accelerators, a metro fog datacenter, and a regional cloud."""
    topo = Topology("smart-city")
    for i in range(6):
        topo.add_site(make_site(f"camera{i}", Tier.DEVICE, speed=0.1,
                                location_km=(i * 0.5, 0.0)))
    for i in range(3):
        topo.add_site(make_site(
            f"edgebox{i}", Tier.EDGE,
            specializations={"dnn-inference": 8.0},
            location_km=(i * 1.0, 0.2),
        ))
    topo.add_site(make_site("metro-fog", Tier.FOG, location_km=(1.5, 15.0)))
    topo.add_site(make_site("region-cloud", Tier.CLOUD,
                            specializations={"dnn-inference": 16.0,
                                             "training": 30.0},
                            location_km=(400.0, 300.0)))
    for i in range(6):
        topo.add_link(f"camera{i}", f"edgebox{i // 2}",
                      _scaled_link(2 * MILLISECOND, 50 * Mbps, 0.0,
                                   latency_scale, bandwidth_scale))
    for i in range(3):
        topo.add_link(f"edgebox{i}", "metro-fog",
                      _scaled_link(3 * MILLISECOND, 1 * Gbps, 0.0,
                                   latency_scale, bandwidth_scale))
    topo.add_link("metro-fog", "region-cloud",
                  _scaled_link(12 * MILLISECOND, 10 * Gbps, 0.09,
                               latency_scale, bandwidth_scale))
    topo.validate()
    return topo


def science_grid(*, latency_scale: float = 1.0, bandwidth_scale: float = 1.0) -> Topology:
    """Preset: a light-source science campus — an instrument producing
    data, a beamline edge cluster, the campus fog, a national HPC center
    over a fat science network, and a commercial cloud."""
    topo = Topology("science-grid")
    topo.add_site(make_site("instrument", Tier.DEVICE, speed=0.5,
                            location_km=(0.0, 0.0)))
    topo.add_site(make_site("beamline-edge", Tier.EDGE, slots=8,
                            specializations={"reconstruction": 4.0},
                            location_km=(0.1, 0.0)))
    topo.add_site(make_site("campus-fog", Tier.FOG, location_km=(2.0, 1.0)))
    topo.add_site(make_site("hpc-center", Tier.HPC,
                            specializations={"reconstruction": 6.0,
                                             "simulation": 10.0},
                            location_km=(900.0, 200.0)))
    topo.add_site(make_site("cloud", Tier.CLOUD,
                            location_km=(600.0, -500.0)))
    topo.add_link("instrument", "beamline-edge",
                  _scaled_link(0.5 * MILLISECOND, 10 * Gbps, 0.0,
                               latency_scale, bandwidth_scale))
    topo.add_link("beamline-edge", "campus-fog",
                  _scaled_link(1 * MILLISECOND, 10 * Gbps, 0.0,
                               latency_scale, bandwidth_scale))
    topo.add_link("campus-fog", "hpc-center",
                  _scaled_link(8 * MILLISECOND, 100 * Gbps, 0.0,
                               latency_scale, bandwidth_scale))
    topo.add_link("campus-fog", "cloud",
                  _scaled_link(15 * MILLISECOND, 10 * Gbps, 0.09,
                               latency_scale, bandwidth_scale))
    topo.add_link("hpc-center", "cloud",
                  _scaled_link(20 * MILLISECOND, 10 * Gbps, 0.09,
                               latency_scale, bandwidth_scale))
    topo.validate()
    return topo
