import pytest

from repro.continuum import Link, PowerModel, PricingModel, Site, Tier, Topology
from repro.core.context import SchedulingContext
from repro.core.cost import CostModel
from repro.datafabric import Dataset, ReplicaCatalog
from repro.errors import SchedulingError
from repro.workflow import TaskSpec


def make_world():
    topo = Topology()
    topo.add_site(Site("edge", Tier.EDGE, speed=1.0, slots=2,
                       power=PowerModel(busy_watts=10.0)))
    topo.add_site(Site("cloud", Tier.CLOUD, speed=4.0, slots=4,
                       power=PowerModel(busy_watts=100.0),
                       pricing=PricingModel(usd_per_core_hour=3600.0)))
    topo.add_link("edge", "cloud", Link(0.0, 100.0, usd_per_gb=1e9 / 1e9))
    cat = ReplicaCatalog()
    cat.register(Dataset("d", 200.0))
    cat.add_replica("d", "edge")
    return topo, cat


class TestCostModel:
    def test_exec_time_uses_speed(self):
        topo, cat = make_world()
        cost = CostModel(topo, cat)
        task = TaskSpec("t", work=8.0)
        assert cost.exec_time(task, topo.site("edge")) == 8.0
        assert cost.exec_time(task, topo.site("cloud")) == 2.0

    def test_stage_plan_empty_when_local(self):
        topo, cat = make_world()
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 1.0, inputs=("d",))
        assert cost.stage_plan(task, topo.site("edge")) == []

    def test_stage_plan_remote(self):
        topo, cat = make_world()
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 1.0, inputs=("d",))
        plan = cost.stage_plan(task, topo.site("cloud"))
        assert plan == [("d", "edge", pytest.approx(2.0))]

    def test_estimate_fields(self):
        topo, cat = make_world()
        cost = CostModel(topo, cat)
        task = TaskSpec("t", work=8.0, inputs=("d",))
        est = cost.estimate(task, topo.site("cloud"))
        assert est.stage_time_s == pytest.approx(2.0)
        assert est.exec_time_s == pytest.approx(2.0)
        assert est.total_time_s == pytest.approx(4.0)
        assert est.bytes_moved == 200.0
        assert est.energy_j == pytest.approx(200.0)     # 100 W * 2 s
        assert est.compute_usd == pytest.approx(2.0)    # $3600/h => $1/s
        assert est.transfer_usd == pytest.approx(200.0 / 1e9 * 1.0 * 1e9 / 1e9)

    def test_estimate_local_is_free_to_stage(self):
        topo, cat = make_world()
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 8.0, inputs=("d",))
        est = cost.estimate(task, topo.site("edge"))
        assert est.stage_time_s == 0.0
        assert est.bytes_moved == 0.0
        assert est.transfer_usd == 0.0

    def test_parallel_staging_takes_max(self):
        topo, cat = make_world()
        cat.register(Dataset("d2", 400.0))
        cat.add_replica("d2", "edge")
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 1.0, inputs=("d", "d2"))
        est = cost.estimate(task, topo.site("cloud"))
        assert est.stage_time_s == pytest.approx(4.0)   # max(2, 4)
        assert est.bytes_moved == 600.0

    def test_mean_exec_time(self):
        topo, cat = make_world()
        cost = CostModel(topo, cat)
        task = TaskSpec("t", 8.0)
        sites = [topo.site("edge"), topo.site("cloud")]
        assert cost.mean_exec_time(task, sites) == pytest.approx(5.0)

    def test_mean_exec_time_empty_rejected(self):
        topo, cat = make_world()
        with pytest.raises(SchedulingError):
            CostModel(topo, cat).mean_exec_time(TaskSpec("t", 1.0), [])


class TestSchedulingContext:
    def test_candidates_default_all_sites(self):
        topo, cat = make_world()
        ctx = SchedulingContext(topo, cat)
        assert [s.name for s in ctx.candidates] == ["edge", "cloud"]

    def test_candidate_subset(self):
        topo, cat = make_world()
        ctx = SchedulingContext(topo, cat, candidate_sites=["cloud"])
        assert [s.name for s in ctx.candidates] == ["cloud"]
        with pytest.raises(SchedulingError):
            ctx.est_available("edge")

    def test_empty_candidates_rejected(self):
        # every rejected candidate list, in one test
        topo, cat = make_world()
        for names, match in [
            ([], "no candidate sites"),
            (["edge", "edge"], "duplicate candidate site 'edge'"),
            (["edge", "cloud", "edge"], "duplicate candidate site 'edge'"),
        ]:
            with pytest.raises(SchedulingError, match=match):
                SchedulingContext(topo, cat, candidate_sites=names)

    def test_reservation_bookkeeping(self):
        topo, cat = make_world()
        ctx = SchedulingContext(topo, cat)
        assert ctx.est_available("edge") == 0.0
        ctx.reserve("edge", 5.0)
        # edge has 2 slots; one still free
        assert ctx.est_available("edge") == 0.0
        ctx.reserve("edge", 7.0)
        assert ctx.est_available("edge") == 5.0

    def test_est_available_never_in_past(self):
        topo, cat = make_world()
        ctx = SchedulingContext(topo, cat)
        ctx.set_now(10.0)
        assert ctx.est_available("edge") == 10.0

    def test_load_of(self):
        topo, cat = make_world()
        ctx = SchedulingContext(topo, cat)
        ctx.reserve("edge", 4.0)
        assert ctx.load_of("edge") == pytest.approx(2.0)  # (4 + 0) / 2 slots

    def test_estimate_finish_eft_rule(self):
        topo, cat = make_world()
        ctx = SchedulingContext(topo, cat)
        task = TaskSpec("t", 8.0, inputs=("d",))
        # cloud: stage 2 + exec 2, slots free at 0 => finish 4
        _, finish = ctx.estimate_finish(task, topo.site("cloud"))
        assert finish == pytest.approx(4.0)
        # fill cloud's 4 slots until t=10: start limited by availability
        for _ in range(4):
            ctx.reserve("cloud", 10.0)
        _, finish = ctx.estimate_finish(task, topo.site("cloud"))
        assert finish == pytest.approx(12.0)
