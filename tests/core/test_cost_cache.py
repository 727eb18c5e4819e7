"""Stage plans must follow replica changes: never stale placement data."""

import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.core.cost import CostModel
from repro.datafabric import Dataset, ReplicaCatalog
from repro.workflow import TaskSpec


def world():
    topo = Topology()
    topo.add_site(Site("near", Tier.EDGE))
    topo.add_site(Site("mid", Tier.FOG))
    topo.add_site(Site("far", Tier.CLOUD))
    topo.add_link("near", "mid", Link(0.001, 1e9))
    topo.add_link("mid", "far", Link(0.100, 1e9))
    cat = ReplicaCatalog()
    cat.register(Dataset("d", 1e6))
    return topo, cat


class TestCatalogVersion:
    def test_version_bumps_on_replica_changes(self):
        _, cat = world()
        v0 = cat.version
        cat.add_replica("d", "far")
        assert cat.version == v0 + 1
        cat.drop_replica("d", "far")
        assert cat.version == v0 + 2

    def test_register_does_not_bump(self):
        _, cat = world()
        v0 = cat.version
        cat.register(Dataset("d2", 1.0))
        assert cat.version == v0


class TestNearestSourceCache:
    def test_new_closer_replica_invalidates(self):
        topo, cat = world()
        cat.add_replica("d", "far")
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 1.0, inputs=("d",))
        plan1 = cost.stage_plan(task, topo.site("near"))
        assert plan1[0][1] == "far"
        # a replica lands nearby: the next plan must see it
        cat.add_replica("d", "mid")
        plan2 = cost.stage_plan(task, topo.site("near"))
        assert plan2[0][1] == "mid"
        assert plan2[0][2] < plan1[0][2]

    def test_dropped_replica_invalidates(self):
        topo, cat = world()
        cat.add_replica("d", "far")
        cat.add_replica("d", "mid")
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 1.0, inputs=("d",))
        assert cost.stage_plan(task, topo.site("near"))[0][1] == "mid"
        cat.drop_replica("d", "mid")
        assert cost.stage_plan(task, topo.site("near"))[0][1] == "far"

    def test_repeated_lookups_consistent(self):
        topo, cat = world()
        cat.add_replica("d", "far")
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 1.0, inputs=("d",))
        a = cost.estimate(task, topo.site("near"))
        b = cost.estimate(task, topo.site("near"))
        assert a == b
