"""Infrastructure model of the computing continuum.

The keynote's premise is that computing now spans a *continuum* of
resources — devices, edge boxes, fog/campus clusters, commercial clouds,
and HPC centers — joined by networks whose latency is bounded by the speed
of light and whose bandwidth keeps growing (Gilder). This package models
exactly those pieces:

- :class:`Tier` — the five resource classes,
- :class:`Site` — a named compute location (speed, worker slots, memory,
  energy & pricing models, geographic position, accelerator specializations),
- :class:`Link` — a network edge (propagation latency, bandwidth, $/byte),
- :class:`Topology` — a routed graph of sites and links,
- builders — common shapes (hierarchical continuum, presets),
- generators — the parameterized topology zoo (clique, chain, ring,
  grid, fat-tree, multi-region) and the duty-cycle churn layer.
"""

from repro.continuum.tiers import Tier
from repro.continuum.power import PowerModel
from repro.continuum.pricing import PricingModel
from repro.continuum.site import Site
from repro.continuum.link import Link
from repro.continuum.topology import PathInfo, Topology
from repro.continuum.serialize import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.continuum.builders import (
    edge_cloud_pair,
    geo_random_continuum,
    hierarchical_continuum,
    science_grid,
    smart_city,
)
from repro.continuum.generators import (
    CHURN_INTENSITIES,
    TOPOLOGY_FAMILIES,
    ChainParams,
    CliqueParams,
    DutyCycleParams,
    FatTreeParams,
    GridParams,
    MultiRegionParams,
    RingParams,
    churn_preset,
    compile_duty_cycles,
    zoo_topology,
)

__all__ = [
    "Tier",
    "PowerModel",
    "PricingModel",
    "Site",
    "Link",
    "PathInfo",
    "Topology",
    "edge_cloud_pair",
    "geo_random_continuum",
    "hierarchical_continuum",
    "science_grid",
    "smart_city",
    "load_topology",
    "save_topology",
    "topology_from_dict",
    "topology_to_dict",
    "CHURN_INTENSITIES",
    "TOPOLOGY_FAMILIES",
    "ChainParams",
    "CliqueParams",
    "DutyCycleParams",
    "FatTreeParams",
    "GridParams",
    "MultiRegionParams",
    "RingParams",
    "churn_preset",
    "compile_duty_cycles",
    "zoo_topology",
]
