import pickle

import pytest

from repro.continuum import Link, Site, Tier, Topology
from repro.datafabric import Dataset, ReplicaCatalog
from repro.errors import ConfigurationError, DataFabricError


def topo3():
    t = Topology()
    for name in ("edge", "fog", "cloud"):
        t.add_site(Site(name, Tier.FOG))
    t.add_link("edge", "fog", Link(0.001, 1e9))
    t.add_link("fog", "cloud", Link(0.010, 1e8))
    return t


class TestDataset:
    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset("d", -1)

    def test_empty_name_rejected(self):
        with pytest.raises(DataFabricError):
            Dataset("", 10)

    def test_metadata_not_in_equality(self):
        assert Dataset("d", 10, metadata={"a": 1}) == Dataset("d", 10, metadata={})

    def test_hashable(self):
        assert len({Dataset("d", 10), Dataset("d", 10)}) == 1

    def test_metadata_defaults_to_none(self):
        """A dataset carries no metadata container unless given one."""
        assert Dataset("d", 1).metadata is None
        assert "metadata=None" in repr(Dataset("d", 1))

    def test_default_metadata_survives_pickle(self):
        clone = pickle.loads(pickle.dumps(Dataset("d", 1)))
        assert clone == Dataset("d", 1) and clone.metadata is None
        tagged = pickle.loads(pickle.dumps(Dataset("d", 1, metadata={"a": 1})))
        assert tagged.metadata == {"a": 1}


class TestRegistration:
    def test_register_and_lookup(self):
        cat = ReplicaCatalog()
        d = cat.register(Dataset("frames", 1e9))
        assert cat.dataset("frames") is d
        assert "frames" in cat

    def test_reregister_identical_ok(self):
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 10))
        cat.register(Dataset("d", 10))
        assert cat.dataset("d") == Dataset("d", 10)

    def test_reregister_conflicting_rejected(self):
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 10))
        with pytest.raises(DataFabricError):
            cat.register(Dataset("d", 20))

    def test_unknown_dataset(self):
        with pytest.raises(DataFabricError):
            ReplicaCatalog().dataset("nope")


class TestReplicas:
    def test_add_and_locate(self):
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 10))
        cat.add_replica("d", "edge")
        cat.add_replica("d", "cloud")
        assert sorted(cat.locations("d")) == ["cloud", "edge"]
        assert cat.has_replica("d", "edge")
        assert not cat.has_replica("d", "fog")

    def test_drop(self):
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 10))
        cat.add_replica("d", "edge")
        cat.drop_replica("d", "edge")
        assert cat.locations("d") == []

    def test_drop_missing_rejected(self):
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 10))
        with pytest.raises(DataFabricError):
            cat.drop_replica("d", "edge")

    def test_replica_for_unknown_dataset_rejected(self):
        with pytest.raises(DataFabricError):
            ReplicaCatalog().add_replica("nope", "edge")


class TestNearestSource:
    def test_picks_fastest_path(self):
        topo = topo3()
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 1e9))
        cat.add_replica("d", "edge")   # 1 GB at 1 GB/s from fog
        cat.add_replica("d", "cloud")  # 1 GB at 0.1 GB/s from fog
        src, est = cat.nearest_source(topo, "d", "fog")
        assert src == "edge"
        assert est == pytest.approx(0.001 + 1.0)

    def test_local_replica_wins(self):
        topo = topo3()
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 1e9))
        cat.add_replica("d", "cloud")
        cat.add_replica("d", "fog")
        src, est = cat.nearest_source(topo, "d", "fog")
        assert src == "fog"
        assert est == 0.0

    def test_no_replica_raises(self):
        cat = ReplicaCatalog()
        cat.register(Dataset("d", 1))
        with pytest.raises(DataFabricError, match="no replicas"):
            cat.nearest_source(topo3(), "d", "fog")

    def test_small_dataset_prefers_low_latency(self):
        # For a tiny dataset the latency term dominates: edge (1 ms away)
        # beats cloud (10 ms away) even if bandwidths differed.
        topo = topo3()
        cat = ReplicaCatalog()
        cat.register(Dataset("tiny", 1.0))
        cat.add_replica("tiny", "edge")
        cat.add_replica("tiny", "cloud")
        src, _ = cat.nearest_source(topo, "tiny", "fog")
        assert src == "edge"
