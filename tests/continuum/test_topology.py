import math

import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.errors import TopologyError
from tests.oracles.path_rows import path_rows


def simple_triangle():
    topo = Topology("tri")
    for name in ("a", "b", "c"):
        topo.add_site(Site(name, Tier.FOG))
    topo.add_link("a", "b", Link(0.010, 1e9))
    topo.add_link("b", "c", Link(0.010, 2e9))
    topo.add_link("a", "c", Link(0.050, 10e9))
    return topo


class TestConstruction:
    def test_duplicate_site_rejected(self):
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        with pytest.raises(TopologyError):
            topo.add_site(Site("a", Tier.CLOUD))

    def test_link_unknown_site_rejected(self):
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        with pytest.raises(TopologyError):
            topo.add_link("a", "b", Link(0.01, 1e9))

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        with pytest.raises(TopologyError):
            topo.add_link("a", "a", Link(0.01, 1e9))

    def test_duplicate_link_rejected(self):
        topo = simple_triangle()
        with pytest.raises(TopologyError):
            topo.add_link("a", "b", Link(0.02, 1e9))

    def test_contains_and_len(self):
        topo = simple_triangle()
        assert "a" in topo and "z" not in topo
        assert len(topo) == 3

    def test_site_lookup(self):
        topo = simple_triangle()
        assert topo.site("a").name == "a"
        with pytest.raises(TopologyError):
            topo.site("nope")

    def test_sites_by_tier(self):
        topo = Topology()
        topo.add_site(Site("e", Tier.EDGE))
        topo.add_site(Site("c", Tier.CLOUD))
        assert [s.name for s in topo.sites_by_tier(Tier.EDGE)] == ["e"]
        assert [s.name for s in topo.sites_by_tier("cloud")] == ["c"]

    def test_link_lookup(self):
        topo = simple_triangle()
        assert topo.link("a", "b").latency_s == 0.010
        # undirected
        assert topo.link("b", "a").latency_s == 0.010
        with pytest.raises(TopologyError):
            topo.link("a", "z")

    def test_links_listing(self):
        assert len(simple_triangle().links()) == 3


class TestRouting:
    def test_local_path(self):
        info = simple_triangle().path_info("a", "a")
        assert info.latency_s == 0.0
        assert info.bandwidth_Bps == math.inf
        assert info.hop_count == 0
        assert info.transfer_time(1e12) == 0.0

    def test_direct_wins_when_faster(self):
        # a->c direct is 50 ms; a->b->c is 20 ms: routing picks the 2-hop.
        info = simple_triangle().path_info("a", "c")
        assert info.hops == ("a", "b", "c")
        assert info.latency_s == pytest.approx(0.020)
        assert info.bandwidth_Bps == 1e9  # bottleneck of the two hops

    def test_costs_add_along_path(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_site(Site(name, Tier.FOG))
        topo.add_link("a", "b", Link(0.01, 1e9, usd_per_gb=0.05))
        topo.add_link("b", "c", Link(0.01, 1e9, usd_per_gb=0.04))
        info = topo.path_info("a", "c")
        assert info.usd_per_gb == pytest.approx(0.09)
        assert info.transfer_cost(2e9) == pytest.approx(0.18)

    def test_transfer_time_on_path(self):
        info = simple_triangle().path_info("a", "c")
        # 20 ms latency + 1 GB at bottleneck 1 GB/s
        assert info.transfer_time(1e9) == pytest.approx(1.020)

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        topo.add_site(Site("b", Tier.EDGE))
        with pytest.raises(TopologyError):
            topo.path_info("a", "b")

    def test_unknown_endpoint_raises(self):
        with pytest.raises(TopologyError):
            simple_triangle().path_info("a", "zzz")

    def test_cache_invalidated_on_new_link(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_site(Site(name, Tier.FOG))
        topo.add_link("a", "b", Link(0.010, 1e9))
        topo.add_link("b", "c", Link(0.010, 1e9))
        assert topo.path_info("a", "c").hop_count == 2
        topo2 = Topology()  # sanity: fresh object unaffected
        del topo2
        topo.add_site(Site("d", Tier.FOG))
        topo.add_link("a", "d", Link(0.001, 1e9))
        topo.add_link("d", "c", Link(0.001, 1e9))
        assert topo.path_info("a", "c").hops == ("a", "d", "c")

    def test_negative_transfer_size_rejected(self):
        with pytest.raises(TopologyError):
            simple_triangle().path_info("a", "b").transfer_time(-1)


class TestValidate:
    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            Topology().validate()

    def test_disconnected_rejected(self):
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        topo.add_site(Site("b", Tier.EDGE))
        with pytest.raises(TopologyError, match="disconnected"):
            topo.validate()

    def test_single_site_valid(self):
        topo = Topology()
        topo.add_site(Site("a", Tier.EDGE))
        topo.validate()

    def test_describe(self):
        text = simple_triangle().describe()
        assert "3 sites" in text and "3 links" in text


class TestPathRowsUnreachable:
    """Regression: unreachable destinations must never look attractive.

    The path rows used to mark unreachable destinations with ``inf`` on
    *all three* axes — infinite latency and dollars correctly repel
    minimizers, but infinite *bandwidth* makes any bandwidth-greedy
    ranking prefer a site no byte can ever reach. The bandwidth axis
    must read ``0.0`` there (latency/usd stay ``inf``).
    """

    def disconnected(self):
        # two islands: {a, b} linked, {c, d} linked, no bridge
        topo = Topology("islands")
        for name in ("a", "b", "c", "d"):
            topo.add_site(Site(name, Tier.FOG))
        topo.add_link("a", "b", Link(0.010, 1e9))
        topo.add_link("c", "d", Link(0.010, 5e9))
        return topo

    def test_unreachable_bandwidth_is_zero(self):
        topo = self.disconnected()
        lat, bw, usd = path_rows(topo, "a")
        idx = topo.site_index
        for dst in ("c", "d"):
            col = idx[dst]
            assert lat[col] == math.inf
            assert bw[col] == 0.0          # the fix: 0, not inf
            assert usd[col] == math.inf

    def test_bandwidth_greedy_ranking_never_picks_unreachable(self):
        topo = self.disconnected()
        _, bw, _ = path_rows(topo, "a")
        idx = topo.site_index
        # highest-bandwidth destination out of "a" must be on a's island
        best = max(
            (n for n in topo.site_names if n != "a"), key=lambda n: bw[idx[n]]
        )
        assert best == "b"
        assert bw[idx["b"]] == 1e9

    def test_reachable_rows_unchanged(self):
        topo = self.disconnected()
        lat, bw, usd = path_rows(topo, "c")
        idx = topo.site_index
        assert bw[idx["d"]] == 5e9
        assert lat[idx["d"]] == pytest.approx(0.010)
        assert bw[idx["c"]] == math.inf    # local path keeps inf bandwidth

    def test_batch_estimate_rejects_unreachable(self):
        # a dataset born on one island must estimate as unreachable-inf
        # (not NaN, not free) at the other island, even when zero bytes
        from repro.core.cost import CostModel
        from repro.datafabric import Dataset, ReplicaCatalog
        from repro.workflow import TaskSpec

        for size in (1e9, 0.0):
            topo = self.disconnected()
            catalog = ReplicaCatalog()
            catalog.register(Dataset("blob", size))
            catalog.add_replica("blob", "a")
            model = CostModel(topo, catalog)
            task = TaskSpec("t", work=1.0, inputs=("blob",))
            batch = model.estimate_batch(task, topo.sites)
            idx = {s.name: i for i, s in enumerate(topo.sites)}
            assert batch.stage_time_s[idx["b"]] < math.inf
            for dst in ("c", "d"):
                assert batch.stage_time_s[idx[dst]] == math.inf
