"""Topology (de)serialization: reproducible infrastructure configs.

A topology round-trips through a plain dict (and therefore JSON), so
experiment configurations can live in version control and be shared —
the "infrastructure as data" counterpart to seeded workloads.
"""

from __future__ import annotations

import json
from dataclasses import fields

from repro.continuum.link import Link
from repro.continuum.power import PowerModel
from repro.continuum.pricing import PricingModel
from repro.continuum.site import Site
from repro.continuum.tiers import Tier
from repro.continuum.topology import Topology
from repro.errors import TopologyError
from repro.utils.atomic import write_atomic

# 2: sites carry no idle power and no egress price (bytes are priced on
# links). Version 1 files hold both, so they are refused.
_FORMAT_VERSION = 2


def site_to_dict(site: Site) -> dict:
    return {
        "name": site.name,
        "tier": site.tier.name,
        "speed": site.speed,
        "slots": site.slots,
        "memory_bytes": site.memory_bytes,
        "power": {"busy_watts": site.power.busy_watts},
        "pricing": {"usd_per_core_hour": site.pricing.usd_per_core_hour},
        "location_km": list(site.location_km),
        "specializations": dict(site.specializations),
    }


def _model(cls, data, where: str):
    """A :class:`PowerModel` or :class:`PricingModel` from its dict."""
    if not isinstance(data, dict):
        raise TopologyError(f"{where} must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise TopologyError(f"{where} has unknown fields {sorted(unknown)}")
    return cls(**data)


def site_from_dict(data: dict) -> Site:
    if not isinstance(data, dict):
        raise TopologyError(f"site entry must be an object, got {data!r}")
    name = data.get("name")
    try:
        return Site(
            name=data["name"],
            tier=Tier.parse(data["tier"]),
            speed=data.get("speed", 1.0),
            slots=data.get("slots", 1),
            memory_bytes=data.get("memory_bytes", 8e9),
            power=_model(PowerModel, data.get("power", {}),
                         f"site {name!r} power"),
            pricing=_model(PricingModel, data.get("pricing", {}),
                           f"site {name!r} pricing"),
            location_km=tuple(data.get("location_km", (0.0, 0.0))),
            specializations=dict(data.get("specializations", {})),
        )
    except KeyError as exc:
        raise TopologyError(f"site dict missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise TopologyError(f"site {name!r}: {exc}") from None


def topology_to_dict(topology: Topology) -> dict:
    """Plain-data snapshot of a topology (JSON-safe)."""
    return {
        "version": _FORMAT_VERSION,
        "name": topology.name,
        "sites": [site_to_dict(s) for s in topology.sites],
        "links": [
            {"a": a, "b": b, "latency_s": link.latency_s,
             "bandwidth_Bps": link.bandwidth_Bps,
             "usd_per_gb": link.usd_per_gb}
            for a, b, link in topology.links()
        ],
    }


def topology_from_dict(data: dict) -> Topology:
    """Rebuild a topology; validates structure and connectivity."""
    if not isinstance(data, dict) or "sites" not in data:
        raise TopologyError("topology dict missing 'sites'")
    if not isinstance(data["sites"], list) or \
            not isinstance(data.get("links", []), list):
        raise TopologyError("topology 'sites' and 'links' must be lists")
    if data.get("version", _FORMAT_VERSION) != _FORMAT_VERSION:
        raise TopologyError(
            f"unsupported topology format version {data.get('version')}"
        )
    topo = Topology(data.get("name", "topology"))
    for site_data in data["sites"]:
        topo.add_site(site_from_dict(site_data))
    for link_data in data.get("links", []):
        if not isinstance(link_data, dict):
            raise TopologyError(
                f"link entry must be an object, got {link_data!r}")
        try:
            topo.add_link(
                link_data["a"], link_data["b"],
                Link(latency_s=link_data["latency_s"],
                     bandwidth_Bps=link_data["bandwidth_Bps"],
                     usd_per_gb=link_data.get("usd_per_gb", 0.0)),
            )
        except KeyError as exc:
            raise TopologyError(f"link dict missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            ends = f"{link_data.get('a')!r}-{link_data.get('b')!r}"
            raise TopologyError(f"link {ends}: {exc}") from None
    topo.validate()
    return topo


def save_topology(topology: Topology, path: str) -> None:
    """Write a topology as JSON (atomically and durably)."""
    write_atomic(path, json.dumps(topology_to_dict(topology), indent=1,
                                  sort_keys=True))


def load_topology(path: str) -> Topology:
    """Read a topology JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise TopologyError(f"no topology file at {path!r}") from None
    except json.JSONDecodeError as exc:
        raise TopologyError(f"corrupt topology file {path!r}: {exc}") from exc
    return topology_from_dict(data)
