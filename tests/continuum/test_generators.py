"""Topology zoo and churn-layer tests."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import (
    CHURN_INTENSITIES,
    TOPOLOGY_FAMILIES,
    ChainParams,
    CliqueParams,
    DutyCycleParams,
    FatTreeParams,
    GridParams,
    MultiRegionParams,
    RingParams,
    Tier,
    churn_preset,
    compile_duty_cycles,
    topology_to_dict,
    zoo_topology,
)
from repro.continuum import Link, Topology
from repro.continuum.generators import duty_cycle_windows
from repro.core.scheduler import ContinuumScheduler
from repro.core.strategies import GreedyEFTStrategy
from repro.errors import ConfigurationError, TopologyError
from tests.oracles.path_rows import path_rows
from repro.utils.rng import RngRegistry
from repro.workloads.dags import layered_random_dag


class TestFamilies:
    def test_registry_covers_six_families(self):
        assert sorted(TOPOLOGY_FAMILIES) == [
            "chain", "clique", "fat-tree", "grid", "multi-region", "ring",
        ]

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_every_family_is_wired_and_tier_diverse(self, family):
        topo = zoo_topology(family, seed=7)
        topo.validate()  # non-empty and fully connected
        assert topo.sites_by_tier(Tier.EDGE), f"{family} has no edge sites"
        assert topo.sites_by_tier(Tier.CLOUD), f"{family} has no cloud sites"
        # every routed pair composes finite latency and positive bandwidth
        names = topo.site_names
        info = topo.path_info(names[0], names[-1])
        assert math.isfinite(info.latency_s)
        assert info.bandwidth_Bps > 0

    def test_link_counts_match_family_shape(self):
        assert len(zoo_topology("clique", n_sites=5).links()) == 10
        assert len(zoo_topology("chain", n_sites=5).links()) == 4
        assert len(zoo_topology("ring", n_sites=5).links()) == 5
        # grid: rows*(cols-1) + cols*(rows-1)
        assert len(zoo_topology("grid", rows=3, cols=4).links()) == 17
        # k-ary fat-tree: k pods * (k/2 hosts * k/2 leaves wait) —
        # hosts k^3/4 + leaf-agg k*(k/2)^2 + agg-core k*(k/2)^2
        assert len(zoo_topology("fat-tree", k=4).links()) == 48

    def test_same_params_same_topology(self):
        a = topology_to_dict(zoo_topology("multi-region", seed=11))
        b = topology_to_dict(zoo_topology("multi-region", seed=11))
        assert a == b

    def test_seed_changes_latencies_not_shape(self):
        a = zoo_topology("ring", seed=1)
        b = zoo_topology("ring", seed=2)
        assert a.site_names == b.site_names
        assert len(a.links()) == len(b.links())
        assert any(
            a.link(x, y).latency_s != b.link(x, y).latency_s
            for x, y, _ in a.links()
        )

    def test_scales_multiply_links(self):
        base = zoo_topology("chain", seed=4)
        fast = zoo_topology("chain", seed=4, bandwidth_scale=10.0,
                            latency_scale=0.5)
        for a, b, link in base.links():
            scaled = fast.link(a, b)
            assert scaled.bandwidth_Bps == pytest.approx(
                10.0 * link.bandwidth_Bps)
            assert scaled.latency_s == pytest.approx(0.5 * link.latency_s)

    def test_unknown_family_and_param_raise(self):
        with pytest.raises(TopologyError, match="unknown topology family"):
            zoo_topology("torus")
        with pytest.raises(TopologyError, match="unknown 'ring' parameters"):
            zoo_topology("ring", k=4)

    def test_degenerate_sizes_raise(self):
        for params in (CliqueParams(n_sites=1), ChainParams(n_sites=1),
                       RingParams(n_sites=2), GridParams(rows=1),
                       FatTreeParams(k=3), MultiRegionParams(n_regions=0),
                       MultiRegionParams(edges_per_region=0)):
            with pytest.raises(TopologyError):
                params.build()

    def test_fat_tree_capacity_widens_toward_core(self):
        topo = FatTreeParams(k=4, access_bandwidth_Bps=1e8,
                             uplink_multiplier=4.0).build()
        access = topo.link("p0-h0-0", "p0-edge0").bandwidth_Bps
        uplink = topo.link("p0-edge0", "p0-agg0").bandwidth_Bps
        core = topo.link("p0-agg0", "core0").bandwidth_Bps
        assert access == pytest.approx(1e8)
        assert uplink == pytest.approx(4e8)
        assert core == pytest.approx(16e8)

    def test_multi_region_wan_is_priced_and_geographic(self):
        params = MultiRegionParams(n_regions=3, seed=9)
        topo = params.build()
        wan = topo.link("r0-cloud", "r1-cloud")
        assert wan.usd_per_gb == pytest.approx(params.egress_usd_per_gb)
        # speed-of-light floor: regions sit thousands of km apart
        assert wan.latency_s >= 10e-3
        # a device routes to a remote region's cloud through its own stack
        info = topo.path_info("r0-dev0", "r2-cloud")
        assert info.hop_count >= 3
        assert math.isfinite(info.latency_s)

    def test_fogless_region_wires_edges_to_cloud(self):
        topo = MultiRegionParams(n_regions=1, fogs_per_region=0).build()
        topo.validate()
        assert topo.link("r0-edge0", "r0-cloud")


class TestChurn:
    def test_presets_cover_intensities(self):
        assert CHURN_INTENSITIES == ("none", "low", "medium", "high")
        assert churn_preset("none") is None
        for name in CHURN_INTENSITIES[1:]:
            params = churn_preset(name, seed=3, horizon_s=500.0)
            assert params.horizon_s == 500.0
            assert params.seed == 3
        with pytest.raises(ConfigurationError, match="unknown churn"):
            churn_preset("apocalyptic")

    def test_intensity_orders_dark_fraction(self):
        topo = zoo_topology("multi-region", seed=2)

        def dark_seconds(intensity):
            params = churn_preset(intensity, seed=2, horizon_s=2000.0)
            schedule = compile_duty_cycles(topo, params)
            return sum(o.duration_s for o in schedule.site_outages)

        assert dark_seconds("low") < dark_seconds("medium") < dark_seconds("high")

    def test_params_validate(self):
        with pytest.raises(ConfigurationError, match="on_fraction"):
            DutyCycleParams(on_fraction=0.0)
        with pytest.raises(ConfigurationError, match="on_fraction"):
            DutyCycleParams(on_fraction=1.5)
        with pytest.raises(ConfigurationError, match="jitter"):
            DutyCycleParams(jitter=1.0)

    def test_always_on_nodes_produce_no_outages(self):
        topo = zoo_topology("clique", seed=1)
        schedule = compile_duty_cycles(topo, DutyCycleParams(on_fraction=1.0))
        assert schedule.empty

    def test_windows_are_disjoint_and_inside_horizon(self):
        topo = zoo_topology("fat-tree", k=4, seed=6)
        params = DutyCycleParams(period_s=50.0, on_fraction=0.6,
                                 horizon_s=1000.0, seed=6)
        schedule = compile_duty_cycles(topo, params)
        assert not schedule.empty
        schedule.validate_against(topo)
        by_site = {}
        for outage in schedule.site_outages:
            assert outage.start_s < params.horizon_s
            by_site.setdefault(outage.site, []).append(outage)
        for outages in by_site.values():
            outages.sort(key=lambda o: o.start_s)
            for prev, cur in zip(outages, outages[1:]):
                assert prev.end_s < cur.start_s  # awake between sleeps

    def test_only_configured_tiers_churn(self):
        topo = zoo_topology("multi-region", seed=4)
        schedule = compile_duty_cycles(
            topo, DutyCycleParams(on_fraction=0.5, seed=4))
        churned = {o.site for o in schedule.site_outages}
        for name in churned:
            assert topo.site(name).tier in (Tier.DEVICE, Tier.EDGE)
        # the core never blinks: clouds and fogs stay up
        assert not any(name.endswith("cloud") for name in churned)

    def test_schedule_is_order_independent(self):
        """Per-site streams: the same site gets the same windows whether
        or not other sites exist."""
        params = DutyCycleParams(period_s=40.0, on_fraction=0.5,
                                 horizon_s=800.0, seed=8)
        big = compile_duty_cycles(zoo_topology("ring", n_sites=8, seed=1),
                                  params)
        small = compile_duty_cycles(zoo_topology("ring", n_sites=4, seed=1),
                                    params)

        def windows(schedule, site):
            return [(o.start_s, o.duration_s)
                    for o in schedule.outages_for(site)]

        assert windows(big, "c0") == windows(small, "c0")

    def test_window_generator_starts_awake(self):
        params = DutyCycleParams(period_s=100.0, on_fraction=0.5,
                                 jitter=0.0, horizon_s=1000.0)
        windows = duty_cycle_windows(params, RngRegistry(0).stream("x"))
        assert windows
        first_start = windows[0][0]
        # phase in [0, period) plus one full on-window
        assert 50.0 <= first_start < 150.0

    def test_churn_composes_with_scheduler(self):
        """A DAG finishes under churn: dark sites interrupt work, the
        scheduler re-places it, makespan only grows."""
        topo = zoo_topology("multi-region", n_regions=2, seed=5)
        dag, externals = layered_random_dag(10, n_levels=3, seed=5)
        edge = topo.sites_by_tier(Tier.EDGE)[0].name
        placed = [(d, edge) for d in externals]
        scheduler = ContinuumScheduler(topo, seed=5)
        calm = scheduler.run(dag, GreedyEFTStrategy(),
                             external_inputs=placed)
        churn = compile_duty_cycles(
            topo, churn_preset("high", seed=5, horizon_s=10_000.0))
        stormy = scheduler.run(dag, GreedyEFTStrategy(),
                               external_inputs=placed, failures=churn,
                               task_retries=200)
        assert set(stormy.records) == set(dag.task_names)
        assert stormy.makespan >= calm.makespan


@st.composite
def zoo_params(draw):
    """A (family, seed, size-overrides) triple small enough that the
    all-pairs agreement check stays cheap."""
    family = draw(st.sampled_from(sorted(TOPOLOGY_FAMILIES)))
    seed = draw(st.integers(0, 10_000))
    if family in ("clique", "chain"):
        kw = {"n_sites": draw(st.integers(2, 5))}
    elif family == "ring":
        kw = {"n_sites": draw(st.integers(3, 6))}
    elif family == "grid":
        kw = {"rows": draw(st.integers(2, 3)), "cols": draw(st.integers(2, 3))}
    elif family == "fat-tree":
        kw = {"k": draw(st.sampled_from([2, 4]))}
    else:
        kw = {"n_regions": draw(st.integers(1, 2)),
              "devices_per_region": draw(st.integers(0, 2)),
              "fogs_per_region": draw(st.integers(0, 1))}
    return family, seed, kw


def _merged_islands(a, b) -> Topology:
    """Two zoo topologies side by side with no cross links: every
    a-to-b pair is unreachable by construction."""
    topo = Topology("islands")
    for prefix, (family, seed, kw) in (("a-", a), ("b-", b)):
        island = zoo_topology(family, seed=seed, **kw)
        for site in island.sites:
            topo.add_site(dataclasses.replace(site, name=prefix + site.name))
        for x, y, link in island.links():
            topo.add_link(prefix + x, prefix + y, link)
    return topo


class TestPathRowsProperties:
    """The vectorized path matrices must agree with the scalar router
    on every zoo topology — including unreachable pairs and after
    cache-invalidating mutations."""

    @settings(max_examples=25, deadline=None)
    @given(params=zoo_params())
    def test_rows_agree_with_scalar_router(self, params):
        family, seed, kw = params
        topo = zoo_topology(family, seed=seed, **kw)
        names = topo.site_names
        # warm one scalar route first: cached PathInfos must win inside
        # the row fill, never diverge from it
        topo.path_info(names[0], names[-1])
        index = topo.site_index
        for src in names:
            lat, bw, usd = path_rows(topo, src)
            for dst, col in index.items():
                info = topo.path_info(src, dst)
                assert lat[col] == info.latency_s
                assert bw[col] == info.bandwidth_Bps
                assert usd[col] == info.usd_per_gb

    @settings(max_examples=15, deadline=None)
    @given(a=zoo_params(), b=zoo_params())
    def test_unreachable_pairs_and_bridge_invalidation(self, a, b):
        topo = _merged_islands(a, b)
        index = topo.site_index
        epoch = topo.routes_epoch
        for src in topo.site_names:
            prefix = src[:2]
            lat, bw, usd = path_rows(topo, src)
            for dst, col in index.items():
                if dst.startswith(prefix):  # same island: scalar agrees
                    info = topo.path_info(src, dst)
                    assert lat[col] == info.latency_s
                    assert bw[col] == info.bandwidth_Bps
                else:                       # cross-island: unreachable
                    assert lat[col] == math.inf
                    assert bw[col] == 0.0
                    assert usd[col] == math.inf
                    with pytest.raises(TopologyError, match="no route"):
                        topo.path_info(src, dst)
        # bridging the islands invalidates every row: cross pairs turn
        # finite and the scalar router agrees again
        a_site = next(n for n in topo.site_names if n.startswith("a-"))
        b_site = next(n for n in topo.site_names if n.startswith("b-"))
        topo.add_link(a_site, b_site, Link(0.01, 1e8))
        assert topo.routes_epoch > epoch
        for src in (a_site, b_site):
            lat, bw, usd = path_rows(topo, src)
            for dst, col in topo.site_index.items():
                info = topo.path_info(src, dst)
                assert lat[col] == info.latency_s
                assert bw[col] == info.bandwidth_Bps
                assert usd[col] == info.usd_per_gb
                assert math.isfinite(lat[col])
