import json

import pytest

from repro.continuum import (
    Tier,
    Topology,
    hierarchical_continuum,
    load_topology,
    save_topology,
    science_grid,
    smart_city,
    topology_from_dict,
    topology_to_dict,
)
from repro.continuum.serialize import site_from_dict, site_to_dict
from repro.continuum.builders import make_site
from repro.errors import TopologyError


class TestSiteRoundtrip:
    def test_roundtrip_preserves_everything(self):
        site = make_site("gpu-edge", Tier.EDGE, speed=3.0, slots=8,
                         specializations={"dnn": 16.0},
                         location_km=(1.5, -2.5))
        back = site_from_dict(site_to_dict(site))
        assert back == site

    def test_missing_name_rejected(self):
        with pytest.raises(TopologyError):
            site_from_dict({"tier": "EDGE"})

    def test_defaults_fill_in(self):
        site = site_from_dict({"name": "x", "tier": "fog"})
        assert site.speed == 1.0
        assert site.tier is Tier.FOG


class TestTopologyRoundtrip:
    @pytest.mark.parametrize("builder", [science_grid, smart_city,
                                         hierarchical_continuum])
    def test_preset_roundtrips(self, builder):
        topo = builder()
        back = topology_from_dict(topology_to_dict(topo))
        assert back.name == topo.name
        assert sorted(back.site_names) == sorted(topo.site_names)
        assert back.link_count == topo.link_count
        # routing behaves identically
        a, b = topo.site_names[0], topo.site_names[-1]
        assert back.path_info(a, b).latency_s == \
            pytest.approx(topo.path_info(a, b).latency_s)
        assert back.path_info(a, b).bandwidth_Bps == \
            pytest.approx(topo.path_info(a, b).bandwidth_Bps)

    def test_dict_is_json_safe(self):
        data = topology_to_dict(science_grid())
        json.dumps(data)  # must not raise

    def test_bad_structure_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"links": []})

    def test_bad_version_rejected(self):
        data = topology_to_dict(science_grid())
        data["version"] = 99
        with pytest.raises(TopologyError, match="version"):
            topology_from_dict(data)

    def test_missing_link_field_rejected(self):
        data = topology_to_dict(science_grid())
        del data["links"][0]["latency_s"]
        with pytest.raises(TopologyError):
            topology_from_dict(data)

    def test_disconnected_rejected_on_load(self):
        data = topology_to_dict(science_grid())
        data["links"] = []
        with pytest.raises(TopologyError, match="disconnected"):
            topology_from_dict(data)

    def test_version_1_file_rejected(self):
        """Version 1 sites carried an idle draw and an egress price."""
        data = topology_to_dict(science_grid())
        data["version"] = 1
        with pytest.raises(TopologyError, match="version 1"):
            topology_from_dict(data)


class TestMalformedInput:
    """Bad field types and names raise one-line TopologyErrors."""

    def site(self, **fields):
        data = site_to_dict(make_site("s", Tier.EDGE))
        data.update(fields)
        return data

    def test_misspelled_power_key(self):
        with pytest.raises(TopologyError, match="unknown fields.*busy_wats"):
            site_from_dict(self.site(power={"busy_wats": 1.0}))

    def test_removed_idle_watts_key(self):
        with pytest.raises(TopologyError, match="idle_watts"):
            site_from_dict(self.site(power={"idle_watts": 1.0}))

    def test_pricing_not_an_object(self):
        with pytest.raises(TopologyError, match="pricing must be an object"):
            site_from_dict(self.site(pricing="x"))

    def test_non_numeric_speed(self):
        with pytest.raises(TopologyError, match="site 's'"):
            site_from_dict(self.site(speed="x"))

    def test_site_not_an_object(self):
        with pytest.raises(TopologyError, match="site entry"):
            topology_from_dict({"sites": ["x"]})

    def test_sites_not_a_list(self):
        with pytest.raises(TopologyError, match="must be lists"):
            topology_from_dict({"sites": "x"})

    def test_non_numeric_link_field(self):
        data = topology_to_dict(science_grid())
        data["links"][0]["latency_s"] = "x"
        with pytest.raises(TopologyError, match="link"):
            topology_from_dict(data)


class TestFileRoundtrip:
    def test_save_load(self, tmp_path):
        path = str(tmp_path / "configs" / "grid.json")
        topo = science_grid()
        save_topology(topo, path)
        back = load_topology(path)
        assert sorted(back.site_names) == sorted(topo.site_names)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TopologyError):
            load_topology(str(tmp_path / "nope.json"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(TopologyError, match="corrupt"):
            load_topology(str(path))

    def test_loaded_topology_schedulable(self, tmp_path):
        from repro.core import ContinuumScheduler, GreedyEFTStrategy
        from repro.workflow import TaskSpec, WorkflowDAG

        path = str(tmp_path / "topo.json")
        save_topology(science_grid(), path)
        topo = load_topology(path)
        dag = WorkflowDAG("t").extend([TaskSpec("only", 4.0)])
        result = ContinuumScheduler(topo).run(dag, GreedyEFTStrategy())
        assert result.task_count == 1
