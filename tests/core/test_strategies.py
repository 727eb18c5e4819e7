import pytest

from repro.continuum import Link, PowerModel, PricingModel, Site, Tier, Topology
from repro.core.context import SchedulingContext
from repro.core.strategies import (
    AdaptiveUCBStrategy,
    DataGravityStrategy,
    FixedSiteStrategy,
    GreedyEFTStrategy,
    HEFTStrategy,
    LatencyAwareStrategy,
    MultiObjectiveStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    TierStrategy,
    pareto_front,
    strategy_catalog,
)
from repro.core.placement import TaskRecord
from repro.datafabric import Dataset, ReplicaCatalog
from repro.errors import SchedulingError
from repro.utils.rng import RngRegistry
from repro.workflow import TaskSpec, WorkflowDAG


def make_ctx(bandwidth=100.0, seed=0):
    """edge (slow, cheap, frugal) <-> cloud (fast, pricey, hungry);
    dataset 'd' (200 B) lives at the edge."""
    topo = Topology()
    topo.add_site(Site("edge", Tier.EDGE, speed=1.0, slots=2,
                       power=PowerModel(busy_watts=10.0)))
    topo.add_site(Site("cloud", Tier.CLOUD, speed=8.0, slots=8,
                       power=PowerModel(busy_watts=200.0),
                       pricing=PricingModel(usd_per_core_hour=36.0)))
    topo.add_link("edge", "cloud", Link(0.0, bandwidth, usd_per_gb=0.09))
    cat = ReplicaCatalog()
    cat.register(Dataset("d", 200.0))
    cat.add_replica("d", "edge")
    return SchedulingContext(topo, cat, rngs=RngRegistry(seed))


class TestFixedAndTier:
    def test_fixed_site(self):
        ctx = make_ctx()
        s = FixedSiteStrategy("cloud")
        assert s.select_site(TaskSpec("t", 1.0), ctx) == "cloud"
        assert s.name == "fixed:cloud"

    def test_fixed_unknown_site_rejected(self):
        ctx = make_ctx()
        with pytest.raises(SchedulingError):
            FixedSiteStrategy("mars").select_site(TaskSpec("t", 1.0), ctx)

    def test_tier_strategy(self):
        ctx = make_ctx()
        assert TierStrategy("edge").select_site(TaskSpec("t", 1.0), ctx) == "edge"
        assert TierStrategy(Tier.CLOUD).select_site(TaskSpec("t", 1.0), ctx) == "cloud"

    def test_tier_empty_rejected(self):
        ctx = make_ctx()
        with pytest.raises(SchedulingError):
            TierStrategy("hpc").select_site(TaskSpec("t", 1.0), ctx)

    def test_tier_picks_least_loaded(self):
        topo = Topology()
        topo.add_site(Site("e1", Tier.EDGE, slots=1))
        topo.add_site(Site("e2", Tier.EDGE, slots=1))
        topo.add_link("e1", "e2", Link(0.0, 1.0))
        ctx = SchedulingContext(topo, ReplicaCatalog())
        ctx.reserve("e1", 100.0)
        assert TierStrategy("edge").select_site(TaskSpec("t", 1.0), ctx) == "e2"


class TestSimple:
    def test_random_is_seed_deterministic(self):
        picks1 = [RandomStrategy().select_site(TaskSpec(f"t{i}", 1.0), make_ctx(seed=5))
                  for i in range(5)]
        picks2 = [RandomStrategy().select_site(TaskSpec(f"t{i}", 1.0), make_ctx(seed=5))
                  for i in range(5)]
        assert picks1 == picks2

    def test_random_within_same_ctx_varies(self):
        ctx = make_ctx(seed=3)
        s = RandomStrategy()
        picks = {s.select_site(TaskSpec(f"t{i}", 1.0), ctx) for i in range(30)}
        assert picks == {"edge", "cloud"}

    def test_round_robin_cycles(self):
        ctx = make_ctx()
        s = RoundRobinStrategy()
        picks = [s.select_site(TaskSpec(f"t{i}", 1.0), ctx) for i in range(4)]
        assert picks == ["edge", "cloud", "edge", "cloud"]


class TestGreedyEFT:
    def test_offloads_big_compute(self):
        # work 80: edge 80 s vs cloud stage 2 + exec 10 => cloud
        ctx = make_ctx(bandwidth=100.0)
        task = TaskSpec("t", 80.0, inputs=("d",))
        assert GreedyEFTStrategy().select_site(task, ctx) == "cloud"

    def test_stays_local_on_thin_pipe(self):
        # bandwidth 1 B/s: stage 200 s dominates
        ctx = make_ctx(bandwidth=1.0)
        task = TaskSpec("t", 80.0, inputs=("d",))
        assert GreedyEFTStrategy().select_site(task, ctx) == "edge"

    def test_accounts_for_queue_pressure(self):
        ctx = make_ctx(bandwidth=1e9)
        task = TaskSpec("t", 8.0)
        # saturate cloud's 8 slots far into the future
        for _ in range(8):
            ctx.reserve("cloud", 1000.0)
        assert GreedyEFTStrategy().select_site(task, ctx) == "edge"


class TestHEFT:
    def test_prioritize_orders_by_upward_rank(self):
        ctx = make_ctx()
        dag = WorkflowDAG()
        # chain a->b->c plus isolated cheap task z
        dag.add_task(TaskSpec("a", 10.0, outputs=(Dataset("da", 1),)))
        dag.add_task(TaskSpec("b", 10.0, inputs=("da",),
                              outputs=(Dataset("db", 1),)))
        dag.add_task(TaskSpec("c", 10.0, inputs=("db",)))
        dag.add_task(TaskSpec("z", 0.1))
        heft = HEFTStrategy()
        heft.prepare(dag, ctx)
        ordered = heft.prioritize([dag.task("z"), dag.task("a")], ctx)
        assert [t.name for t in ordered] == ["a", "z"]

    def test_selects_like_eft(self):
        ctx = make_ctx(bandwidth=100.0)
        task = TaskSpec("t", 80.0, inputs=("d",))
        heft = HEFTStrategy()
        heft.prepare(WorkflowDAG().extend([task]), ctx)
        assert heft.select_site(task, ctx) == \
            GreedyEFTStrategy().select_site(task, ctx)


class TestDataGravity:
    def test_prefers_data_locality(self):
        ctx = make_ctx(bandwidth=1e12)  # even with infinite-ish bandwidth
        task = TaskSpec("t", 80.0, inputs=("d",))
        assert DataGravityStrategy().select_site(task, ctx) == "edge"

    def test_tie_broken_by_finish(self):
        ctx = make_ctx()
        task = TaskSpec("t", 80.0)  # no inputs: bytes tie at 0
        assert DataGravityStrategy().select_site(task, ctx) == "cloud"


class TestAware:
    def test_latency_aware_prefers_cheap_feasible(self):
        ctx = make_ctx(bandwidth=1e9)
        # edge exec 8 s, cloud ~1 s; deadline 100 => both feasible,
        # edge is free => edge wins
        task = TaskSpec("t", 8.0, inputs=("d",), deadline_s=100.0)
        assert LatencyAwareStrategy().select_site(task, ctx) == "edge"

    def test_latency_aware_upgrades_when_deadline_tight(self):
        ctx = make_ctx(bandwidth=1e9)
        task = TaskSpec("t", 8.0, inputs=("d",), deadline_s=2.0)
        assert LatencyAwareStrategy().select_site(task, ctx) == "cloud"

    def test_latency_aware_falls_back_to_min_finish(self):
        ctx = make_ctx(bandwidth=1e9)
        # impossible deadline: choose min finish anyway (cloud)
        task = TaskSpec("t", 800.0, inputs=("d",), deadline_s=0.001)
        assert LatencyAwareStrategy().select_site(task, ctx) == "cloud"

    def test_no_deadline_behaves_like_eft(self):
        ctx = make_ctx(bandwidth=100.0)
        task = TaskSpec("t", 80.0, inputs=("d",))
        assert LatencyAwareStrategy().select_site(task, ctx) == \
            GreedyEFTStrategy().select_site(task, ctx)

    def test_energy_aware_picks_frugal_site(self):
        ctx = make_ctx()
        # edge: 8 s * 10 W = 80 J; cloud: 1 s * 200 W = 200 J
        task = TaskSpec("t", 8.0, inputs=("d",))
        strat = MultiObjectiveStrategy({"energy": 1.0})
        assert strat.select_site(task, ctx) == "edge"

    def test_cost_aware_picks_free_site(self):
        ctx = make_ctx()
        task = TaskSpec("t", 8.0, inputs=("d",))
        strat = MultiObjectiveStrategy({"usd": 1.0})
        assert strat.select_site(task, ctx) == "edge"


class TestMultiObjective:
    def test_pure_time_matches_eft(self):
        ctx = make_ctx(bandwidth=100.0)
        task = TaskSpec("t", 80.0, inputs=("d",))
        strat = MultiObjectiveStrategy({"time": 1.0})
        assert strat.select_site(task, ctx) == \
            GreedyEFTStrategy().select_site(task, ctx)

    def test_unknown_objective_rejected(self):
        with pytest.raises(SchedulingError):
            MultiObjectiveStrategy({"karma": 1.0})

    def test_zero_weights_rejected(self):
        with pytest.raises(SchedulingError):
            MultiObjectiveStrategy({"time": 0.0})

    def test_name_encodes_weights(self):
        assert "time" in MultiObjectiveStrategy({"time": 1.0}).name


class TestParetoFront:
    def test_simple_front(self):
        points = [
            {"a": 1.0, "b": 3.0},
            {"a": 2.0, "b": 2.0},
            {"a": 3.0, "b": 1.0},
            {"a": 3.0, "b": 3.0},   # dominated by all others
        ]
        assert pareto_front(points, ["a", "b"]) == [0, 1, 2]

    def test_duplicates_both_kept(self):
        points = [{"a": 1.0}, {"a": 1.0}]
        assert pareto_front(points, ["a"]) == [0, 1]

    def test_single_axis(self):
        points = [{"a": 2.0}, {"a": 1.0}]
        assert pareto_front(points, ["a"]) == [1]

    def test_empty_axes_rejected(self):
        with pytest.raises(SchedulingError):
            pareto_front([{"a": 1}], [])


class TestAdaptiveUCB:
    def make_record(self, site, turnaround, kind="generic"):
        r = TaskRecord(task="t", site=site, kind=kind)
        r.ready_at = 0.0
        r.exec_finished = turnaround
        return r

    def test_explores_all_arms_first(self):
        ctx = make_ctx()
        s = AdaptiveUCBStrategy()
        first = s.select_site(TaskSpec("t1", 1.0), ctx)
        s.observe(self.make_record(first, 5.0), ctx)
        second = s.select_site(TaskSpec("t2", 1.0), ctx)
        assert {first, second} == {"edge", "cloud"}

    def test_exploits_faster_arm(self):
        ctx = make_ctx()
        s = AdaptiveUCBStrategy(exploration=0.1)
        for _ in range(10):
            s.observe(self.make_record("edge", 10.0), ctx)
            s.observe(self.make_record("cloud", 1.0), ctx)
        assert s.select_site(TaskSpec("t", 1.0), ctx) == "cloud"
        assert s.mean_turnaround("generic", "cloud") == pytest.approx(1.0)

    def test_window_forgets_stale_observations(self):
        ctx = make_ctx()
        s = AdaptiveUCBStrategy(exploration=0.0, window=5)
        # old world: cloud fast
        for _ in range(5):
            s.observe(self.make_record("cloud", 1.0), ctx)
            s.observe(self.make_record("edge", 10.0), ctx)
        # world shifts: cloud now slow
        for _ in range(5):
            s.observe(self.make_record("cloud", 100.0), ctx)
        assert s.mean_turnaround("generic", "cloud") == pytest.approx(100.0)
        assert s.select_site(TaskSpec("t", 1.0), ctx) == "edge"

    def test_kinds_learned_separately(self):
        ctx = make_ctx()
        s = AdaptiveUCBStrategy(exploration=0.0)
        for _ in range(3):
            s.observe(self.make_record("edge", 1.0, kind="a"), ctx)
            s.observe(self.make_record("cloud", 10.0, kind="a"), ctx)
            s.observe(self.make_record("edge", 10.0, kind="b"), ctx)
            s.observe(self.make_record("cloud", 1.0, kind="b"), ctx)
        assert s.select_site(TaskSpec("t", 1.0, kind="a"), ctx) == "edge"
        assert s.select_site(TaskSpec("t2", 1.0, kind="b"), ctx) == "cloud"

    def test_bad_parameters(self):
        with pytest.raises(SchedulingError):
            AdaptiveUCBStrategy(exploration=-1)
        with pytest.raises(SchedulingError):
            AdaptiveUCBStrategy(window=0)


class TestCatalog:
    def test_catalog_contents(self):
        names = [s.name for s in strategy_catalog()]
        assert "heft" in names and "greedy-eft" in names
        assert "edge-only" in names and "cloud-only" in names
        assert "adaptive-ucb" not in names
        assert "adaptive-ucb" in [s.name for s in strategy_catalog(True)]
