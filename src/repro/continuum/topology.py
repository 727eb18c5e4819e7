"""Routed topology of sites and links.

A :class:`Topology` is an undirected multigraph-free graph (one link per
site pair) with latency-weighted shortest-path routing. Effective path
properties follow the usual composition rules: latencies add, bandwidth is
the bottleneck minimum, monetary transfer costs add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, islice

import numpy as np

from repro.continuum.link import Link
from repro.continuum.site import Site
from repro.continuum.tiers import Tier
from repro.errors import TopologyError


@dataclass(frozen=True)
class PathInfo:
    """Composed properties of a routed path between two sites."""

    src: str
    dst: str
    hops: tuple[str, ...]          # site names, inclusive of endpoints
    latency_s: float               # one-way, sum over links
    bandwidth_Bps: float           # bottleneck (min over links)
    usd_per_gb: float              # sum over links

    @property
    def hop_count(self) -> int:
        return max(len(self.hops) - 1, 0)

    def transfer_time(self, size_bytes: float) -> float:
        """Unloaded end-to-end time for ``size_bytes`` along this path."""
        if size_bytes < 0:
            raise TopologyError(f"negative transfer size {size_bytes}")
        if self.hop_count == 0:
            return 0.0
        return self.latency_s + size_bytes / self.bandwidth_Bps

    def transfer_cost(self, size_bytes: float) -> float:
        """Dollars to move ``size_bytes`` along this path."""
        return self.usd_per_gb * (float(size_bytes) / 1e9)


class Topology:
    """Mutable-at-build-time, routed continuum graph.

    Site and link mutation invalidates the routing cache, so topologies
    can be assembled incrementally and then queried cheaply.
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        # site -> {neighbour: Link}, both directions, in insertion order
        self._adj: dict[str, dict[str, Link]] = {}
        self._sites: dict[str, Site] = {}
        self._path_cache: dict[tuple[str, str], PathInfo] = {}
        # all-pairs path properties (see path_block), one plane each for
        # latency, bandwidth and $/GB; rebuilt lazily after any
        # mutation, rows filled on demand
        self._site_index: dict[str, int] | None = None
        self._path_matrix: np.ndarray | None = None
        self._row_filled: np.ndarray | None = None
        self._routes_epoch = 0

    def _invalidate_routes(self) -> None:
        self._path_cache.clear()
        self._site_index = None
        self._path_matrix = None
        self._row_filled = None
        self._routes_epoch += 1

    @property
    def routes_epoch(self) -> int:
        """Monotone counter bumped on every mutation — lets cost models
        cache :attr:`site_index`-derived arrays safely."""
        return self._routes_epoch

    # -- construction -----------------------------------------------------------
    def add_site(self, site: Site) -> Site:
        if site.name in self._sites:
            raise TopologyError(f"duplicate site name {site.name!r}")
        self._sites[site.name] = site
        self._adj[site.name] = {}
        self._invalidate_routes()
        return site

    def add_link(self, a: str, b: str, link: Link) -> Link:
        for end in (a, b):
            if end not in self._sites:
                raise TopologyError(f"unknown site {end!r} in link")
        if a == b:
            raise TopologyError(f"self-link on {a!r}")
        if b in self._adj[a]:
            raise TopologyError(f"duplicate link {a!r}--{b!r}")
        self._adj[a][b] = link
        self._adj[b][a] = link
        self._invalidate_routes()
        return link

    # -- lookup -------------------------------------------------------------------
    @property
    def site_names(self) -> list[str]:
        return list(self._sites)

    @property
    def sites(self) -> list[Site]:
        return list(self._sites.values())

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            raise TopologyError(f"unknown site {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._sites

    def __len__(self) -> int:
        return len(self._sites)

    def sites_by_tier(self, tier: Tier | str) -> list[Site]:
        tier = Tier.parse(tier)
        return [s for s in self._sites.values() if s.tier == tier]

    def link(self, a: str, b: str) -> Link:
        try:
            return self._adj[a][b]
        except KeyError:
            raise TopologyError(f"no link {a!r}--{b!r}") from None

    @property
    def link_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def links(self) -> list[tuple[str, str, Link]]:
        """Every link once, as ``(a, b, link)``: sites in declaration
        order, each with its neighbours in link order, skipping links
        already listed from the other end."""
        out = []
        done: set[str] = set()
        for a, nbrs in self._adj.items():
            out.extend((a, b, link) for b, link in nbrs.items() if b not in done)
            done.add(a)
        return out

    def components(self) -> list[list[str]]:
        """Connected components, each a list in breadth-first discovery
        order, ordered by their first site in declaration order."""
        seen: set[str] = set()
        comps = []
        for start in self._adj:
            if start in seen:
                continue
            seen.add(start)
            comp = [start]
            for v in comp:  # grows while walked: a breadth-first queue
                for w in self._adj[v]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(comp)
        return comps

    # -- routing ---------------------------------------------------------------------
    def path_info(self, src: str, dst: str) -> PathInfo:
        """Latency-optimal route from ``src`` to ``dst`` with composed
        properties. Identical endpoints give a zero-latency,
        infinite-bandwidth local path."""
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        for end in (src, dst):
            if end not in self._sites:
                raise TopologyError(f"unknown site {end!r}")
        # the row fill is the one writer of routes: a pair query fills
        # its source's row, so every route depends on the topology alone
        self._filled_row(src)
        info = self._path_cache.get((src, dst))
        if info is None:
            raise TopologyError(f"no route between {src!r} and {dst!r}")
        return info

    def _compose(self, src: str, dst: str, hops: list[str]) -> PathInfo:
        """Fold per-link properties along ``hops`` into a PathInfo."""
        latency = 0.0
        bandwidth = math.inf
        cost = 0.0
        for a, b in zip(hops, hops[1:]):
            link = self._adj[a][b]
            latency += link.latency_s
            bandwidth = min(bandwidth, link.bandwidth_Bps)
            cost += link.usd_per_gb
        return PathInfo(src, dst, tuple(hops), latency, bandwidth, cost)

    # The Dijkstra loop below follows networkx 3.6.1's
    # single_source_dijkstra step for step (same heap keys, same
    # relaxation order, same float sums), so every route and every
    # tie-break is the one networkx would pick.
    def _source_routes(self, src: str) -> dict[str, list[str]]:
        """Hops of the single-source-Dijkstra route from ``src`` to every
        site it reaches (``src`` itself maps to ``[src]``)."""
        adj = self._adj
        dist: dict[str, float] = {}
        seen: dict[str, float] = {src: 0}
        pred: dict[str, str] = {}
        c = count()
        fringe = [(0, next(c), src)]
        while fringe:
            dist_v, _, v = heappop(fringe)
            if v in dist:
                continue
            dist[v] = dist_v
            for u, link in adj[v].items():
                vu_dist = dist_v + link.latency_s
                if u in dist:
                    continue
                if u not in seen or vu_dist < seen[u]:
                    seen[u] = vu_dist
                    heappush(fringe, (vu_dist, next(c), u))
                    pred[u] = v
        # dist is in settling order, so each predecessor's route is built
        # before any route through it
        paths = {src: [src]}
        for v in islice(dist, 1, None):
            paths[v] = paths[pred[v]] + [v]
        return paths

    @property
    def site_index(self) -> dict[str, int]:
        """Stable site-name -> matrix-column mapping (declaration order).

        Valid until the next topology mutation; shared by
        :meth:`path_block` and batch cost estimation.
        """
        if self._site_index is None:
            self._site_index = {n: i for i, n in enumerate(self._sites)}
        return self._site_index

    def path_block(self, sources: list[str], cols: np.ndarray) -> np.ndarray:
        """``(latency_s, bandwidth_Bps, usd_per_gb)`` blocks, stacked
        in one fresh ``(3, len(sources), len(cols))`` array the caller
        may write to: row ``i`` of each plane holds the routed paths
        out of ``sources[i]`` to the :attr:`site_index` columns
        ``cols``. Two gathers in all, so a caller needing many source
        rows pays no numpy call per source.

        Rows are filled lazily (one single-source Dijkstra pass per
        source) and the composed :class:`PathInfo` records are written
        into the path cache that :meth:`path_info` reads, so the scalar
        and batch APIs agree: only one search exists. Rows are
        invalidated together with the path cache on any mutation.
        Unreachable destinations appear as ``inf`` latency, **``0.0``
        bandwidth**, and ``inf`` dollars rather than raising, so every
        vectorized ranking naturally rejects them: time- and cost-
        minimizers see infinity, and bandwidth-greedy maximizers see
        zero (an ``inf`` there would make an unreachable site the most
        attractive destination on the continuum)."""
        rows = [self._filled_row(src) for src in sources]
        return self._path_matrix.take(rows, axis=1).take(cols, axis=2)

    def _filled_row(self, src: str) -> int:
        """Matrix row of ``src``, running its Dijkstra pass first if the
        row is not filled yet."""
        index = self.site_index
        try:
            row = index[src]
        except KeyError:
            raise TopologyError(f"unknown site {src!r}") from None
        if self._path_matrix is None:
            n = len(index)
            self._path_matrix = np.zeros((3, n, n))
            self._row_filled = np.zeros(n, dtype=bool)
            self._path_matrix.flags.writeable = False
        if not self._row_filled[row]:
            self._path_matrix.flags.writeable = True
            lat, bw, usd = self._path_matrix
            # one single-source Dijkstra pass covers every destination
            # and writes each composed PathInfo into the path cache that
            # path_info reads
            cache = self._path_cache
            sssp = self._source_routes(src)
            for dst, col in index.items():
                if dst == src:
                    info = PathInfo(src, dst, (src,), 0.0, math.inf, 0.0)
                else:
                    hops = sssp.get(dst)
                    if hops is None:  # unreachable: rank as infinitely far
                        lat[row, col] = math.inf
                        bw[row, col] = 0.0   # no route moves no bytes
                        usd[row, col] = math.inf
                        continue
                    info = self._compose(src, dst, hops)
                cache[(src, dst)] = info
                lat[row, col] = info.latency_s
                bw[row, col] = info.bandwidth_Bps
                usd[row, col] = info.usd_per_gb
            self._path_matrix.flags.writeable = False
            self._row_filled[row] = True
        return row

    def validate(self) -> None:
        """Raise :class:`TopologyError` unless the topology is non-empty
        and fully connected (every site can reach every other)."""
        if not self._sites:
            raise TopologyError("topology has no sites")
        components = self.components()
        if len(components) > 1:
            components = [sorted(c) for c in components]
            raise TopologyError(f"topology is disconnected: {components}")

    # -- summary ---------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-paragraph summary (used by examples)."""
        by_tier = {}
        for site in self._sites.values():
            by_tier.setdefault(site.tier.name, []).append(site.name)
        tiers = ", ".join(f"{len(v)} {k.lower()}" for k, v in sorted(by_tier.items()))
        return (
            f"{self.name}: {len(self._sites)} sites ({tiers}), "
            f"{self.link_count} links"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Topology {self.name!r} sites={len(self._sites)}>"
