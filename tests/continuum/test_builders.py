import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import (
    Tier,
    edge_cloud_pair,
    geo_random_continuum,
    hierarchical_continuum,
    science_grid,
    smart_city,
)
from repro.continuum.builders import TIER_PROFILES, make_site
from repro.errors import TopologyError


class TestMakeSite:
    def test_tier_defaults_applied(self):
        s = make_site("x", Tier.CLOUD)
        assert s.speed == TIER_PROFILES[Tier.CLOUD]["speed"]
        assert s.slots == TIER_PROFILES[Tier.CLOUD]["slots"]

    def test_overrides(self):
        s = make_site("x", Tier.EDGE, speed=7.0, slots=2)
        assert s.speed == 7.0 and s.slots == 2


class TestEdgeCloudPair:
    def test_shape(self):
        topo = edge_cloud_pair()
        assert sorted(topo.site_names) == ["cloud", "edge"]
        assert topo.path_info("edge", "cloud").hop_count == 1

    def test_parameters_respected(self):
        topo = edge_cloud_pair(edge_speed=2.0, cloud_speed=32.0,
                               bandwidth_Bps=5e8, latency_s=0.1)
        assert topo.site("edge").speed == 2.0
        assert topo.site("cloud").speed == 32.0
        info = topo.path_info("edge", "cloud")
        assert info.bandwidth_Bps == 5e8
        assert info.latency_s == 0.1

    def test_specializations_forwarded(self):
        topo = edge_cloud_pair(cloud_specializations={"sim": 3.0})
        assert topo.site("cloud").effective_speed("sim") == 24.0


class TestHierarchical:
    def test_scaling_knobs(self):
        base = hierarchical_continuum()
        scaled = hierarchical_continuum(latency_scale=2.0, bandwidth_scale=0.5)
        b0 = base.path_info("dev0", "cloud0")
        s0 = scaled.path_info("dev0", "cloud0")
        assert s0.hops == b0.hops
        assert s0.latency_s == pytest.approx(2 * b0.latency_s)
        assert s0.bandwidth_Bps == pytest.approx(0.5 * b0.bandwidth_Bps)

    def test_default_shape(self):
        topo = hierarchical_continuum()
        assert len(topo.sites_by_tier(Tier.DEVICE)) == 8
        assert len(topo.sites_by_tier(Tier.EDGE)) == 4
        assert len(topo.sites_by_tier(Tier.FOG)) == 2
        assert len(topo.sites_by_tier(Tier.CLOUD)) == 1
        assert len(topo.sites_by_tier(Tier.HPC)) == 1
        topo.validate()

    def test_device_routes_to_hpc_through_hierarchy(self):
        topo = hierarchical_continuum()
        hops = topo.path_info("dev0", "hpc0").hops
        tiers = [topo.site(h).tier for h in hops]
        assert tiers[0] is Tier.DEVICE and tiers[-1] is Tier.HPC
        # strictly inward: no tier decreases along the path
        assert all(a <= b for a, b in zip(tiers, tiers[1:]))

    def test_seed_determinism(self):
        a = hierarchical_continuum(seed=5)
        b = hierarchical_continuum(seed=5)
        assert a.site("dev0").location_km == b.site("dev0").location_km

    def test_requires_central_site(self):
        with pytest.raises(TopologyError):
            hierarchical_continuum(n_cloud=0, n_hpc=0)

    def test_hpc_only_variant(self):
        topo = hierarchical_continuum(n_cloud=0, n_hpc=2)
        topo.validate()
        assert len(topo.sites_by_tier(Tier.HPC)) == 2


class TestGeoRandom:
    def test_connected_by_construction(self):
        topo = geo_random_continuum(25, seed=3)
        assert len(topo.components()) == 1

    def test_determinism(self):
        a = geo_random_continuum(15, seed=9)
        b = geo_random_continuum(15, seed=9)
        assert a.site_names == b.site_names
        assert sorted((x, y) for x, y, _ in a.links()) == sorted(
            (x, y) for x, y, _ in b.links()
        )

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            geo_random_continuum(1)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 1000))
    def test_property_always_connected_and_sized(self, n, seed):
        topo = geo_random_continuum(n, seed=seed, connect_radius_km=300.0)
        assert len(topo) == n
        assert len(topo.components()) == 1


class TestPresets:
    def test_smart_city_shape(self):
        topo = smart_city()
        assert len(topo.sites_by_tier(Tier.DEVICE)) == 6
        assert topo.site("edgebox0").effective_speed("dnn-inference") > \
            topo.site("edgebox0").speed

    def test_science_grid_shape(self):
        topo = science_grid()
        topo.validate()
        info = topo.path_info("instrument", "hpc-center")
        assert info.hop_count >= 2
        assert topo.site("hpc-center").effective_speed("simulation") == 80.0

    def test_science_grid_egress_priced_toward_cloud(self):
        topo = science_grid()
        assert topo.path_info("campus-fog", "cloud").usd_per_gb > 0
        assert topo.path_info("campus-fog", "hpc-center").usd_per_gb == 0
