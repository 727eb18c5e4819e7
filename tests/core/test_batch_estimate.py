"""Batch cost estimation must be a bit-exact vectorization.

``CostModel.estimate_batch`` / ``SchedulingContext.estimate_finish_batch``
exist so strategies can rank every candidate site in one numpy pass. The
contract is equality, not closeness: every array entry equals the scalar
estimate for the same (task, site) pair, and every strategy picks the
same site it picked with the scalar loops — including on exact ties.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.continuum import Link, Site, Tier, Topology, geo_random_continuum
from repro.core import SchedulingContext
from repro.core.cost import CostModel
from repro.core.strategies import (
    DataGravityStrategy,
    GreedyEFTStrategy,
    LatencyAwareStrategy,
    MultiObjectiveStrategy,
)
from repro.continuum.power import PowerModel
from repro.continuum.pricing import PricingModel
from repro.datafabric import Dataset, ReplicaCatalog
from repro.errors import DataFabricError, SchedulingError, TopologyError
from repro.workflow.task import TaskSpec
from tests.oracles import staging


def make_context(n_sites=12, seed=3, n_datasets=6):
    topo = geo_random_continuum(n_sites, seed=seed)
    catalog = ReplicaCatalog()
    rng = np.random.default_rng(seed)
    names = topo.site_names
    for i in range(n_datasets):
        catalog.register(Dataset(f"d{i}", float(rng.uniform(1e6, 1e9))))
        for site in rng.choice(names, size=int(rng.integers(1, 4)),
                               replace=False):
            catalog.add_replica(f"d{i}", str(site))
    return SchedulingContext(topo, catalog)


def some_tasks():
    return [
        TaskSpec("t-no-inputs", work=5.0),
        TaskSpec("t-one", work=2.0, inputs=("d0",)),
        TaskSpec("t-many", work=9.0, inputs=("d1", "d2", "d3")),
        TaskSpec("t-kind", work=4.0, inputs=("d4", "d5"), kind="dnn"),
    ]


class TestEstimateBatchEquality:
    def test_fields_bit_identical_to_scalar(self):
        ctx = make_context()
        sites = ctx.candidates
        for task in some_tasks():
            batch = ctx.cost.estimate_batch(task, sites)
            assert batch.sites == tuple(s.name for s in sites)
            for i, site in enumerate(sites):
                scalar = ctx.cost.estimate(task, site)
                assert batch.stage_time_s[i] == scalar.stage_time_s
                assert batch.exec_time_s[i] == scalar.exec_time_s
                assert batch.bytes_moved[i] == scalar.bytes_moved
                assert batch.energy_j[i] == scalar.energy_j
                assert batch.compute_usd[i] == scalar.compute_usd
                assert batch.transfer_usd[i] == scalar.transfer_usd
                assert batch.total_time_s[i] == scalar.total_time_s
                assert batch.total_usd[i] == scalar.total_usd
                assert batch.at(i) == scalar

    def test_finish_batch_matches_scalar_eft(self):
        ctx = make_context(seed=7)
        sites = ctx.candidates
        # skew slot availabilities so max(now+stage, avail) is exercised
        for i, s in enumerate(sites):
            ctx.reserve(s.name, 0.37 * i)
        ctx.set_now(1.5)
        task = TaskSpec("t", work=3.0, inputs=("d0", "d1"))
        _, finish = ctx.estimate_finish_batch(task, sites)
        for i, site in enumerate(sites):
            _, scalar_finish = ctx.estimate_finish(task, site)
            assert finish[i] == scalar_finish

    def test_batch_reflects_replica_changes(self):
        ctx = make_context(seed=11)
        sites = ctx.candidates
        task = TaskSpec("t", work=1.0, inputs=("d0",))
        before = ctx.cost.estimate_batch(task, sites).bytes_moved.copy()
        for s in sites:
            ctx.catalog.add_replica("d0", s.name)
        after = ctx.cost.estimate_batch(task, sites).bytes_moved
        assert before.max() > 0.0
        assert np.all(after == 0.0)

    def test_no_replica_raises(self):
        ctx = make_context()
        ctx.catalog.register(Dataset("orphan", 1e6))
        task = TaskSpec("t", work=1.0, inputs=("orphan",))
        with pytest.raises(DataFabricError):
            ctx.cost.estimate_batch(task, ctx.candidates)

    def test_empty_site_list_rejected(self):
        ctx = make_context()
        with pytest.raises(SchedulingError):
            ctx.cost.estimate_batch(TaskSpec("t", work=1.0), [])

    def test_mean_exec_time_matches_scalar_sum(self):
        ctx = make_context()
        sites = ctx.candidates
        for task in some_tasks():
            expected = sum(
                ctx.cost.exec_time(task, s) for s in sites
            ) / len(sites)
            assert ctx.cost.mean_exec_time(task, sites) == expected


# the weighted planners, by reference name
WEIGHTS = {
    "energy": {"energy": 1.0},
    "cost": {"usd": 1.0},
    "multi": {"time": 0.5, "usd": 0.25, "bytes": 0.25},
}


def _scalar_reference(strategy_name, task, ctx):
    """The pre-vectorization scalar selection loops, kept verbatim as the
    behavioral reference (including tie-break order)."""
    if strategy_name == "greedy":
        best_name, best_finish = None, None
        for site in ctx.candidates:
            _, finish = ctx.estimate_finish(task, site)
            if best_finish is None or finish < best_finish:
                best_name, best_finish = site.name, finish
        return best_name
    if strategy_name == "gravity":
        best = None
        for site in ctx.candidates:
            est, finish = ctx.estimate_finish(task, site)
            key = (est.bytes_moved, finish)
            if best is None or key < best[0]:
                best = (key, site.name)
        return best[1]
    if strategy_name == "latency":
        feasible, fallback = [], None
        for site in ctx.candidates:
            est, finish = ctx.estimate_finish(task, site)
            if fallback is None or finish < fallback[0]:
                fallback = (finish, site.name)
            if finish <= task.deadline_s:
                feasible.append((est.total_usd, est.energy_j, finish, site.name))
        if feasible:
            return min(feasible)[3]
        return fallback[1]
    if strategy_name in WEIGHTS:
        rows = []
        weights = WEIGHTS[strategy_name]
        for site in ctx.candidates:
            est, finish = ctx.estimate_finish(task, site)
            rows.append((site.name,
                         {"time": finish, "energy": est.energy_j,
                          "usd": est.total_usd, "bytes": est.bytes_moved}))
        scores = {name: 0.0 for name, _ in rows}
        for axis, weight in weights.items():
            values = [m[axis] for _, m in rows]
            lo, hi = min(values), max(values)
            span = hi - lo
            for name, m in rows:
                norm = 0.0 if span == 0 else (m[axis] - lo) / span
                scores[name] += weight * norm
        order = {s.name: i for i, s in enumerate(ctx.candidates)}
        return min(scores, key=lambda n: (scores[n], order[n]))
    raise AssertionError(strategy_name)


STRATEGY_CASES = [
    ("greedy", GreedyEFTStrategy()),
    ("gravity", DataGravityStrategy()),
    ("energy", MultiObjectiveStrategy(WEIGHTS["energy"])),
    ("cost", MultiObjectiveStrategy(WEIGHTS["cost"])),
    ("latency", LatencyAwareStrategy()),
    ("multi", MultiObjectiveStrategy(WEIGHTS["multi"])),
]


class TestStrategiesMatchScalarReference:
    @pytest.mark.parametrize("ref_name,strategy", STRATEGY_CASES)
    def test_randomized_contexts(self, ref_name, strategy):
        for seed in range(6):
            ctx = make_context(n_sites=10, seed=seed)
            for i, s in enumerate(ctx.candidates):
                ctx.reserve(s.name, (seed + 1) * 0.21 * i)
            deadline = 5.0 if ref_name == "latency" else None
            tasks = [
                TaskSpec("t0", work=2.0, inputs=("d0", "d3"),
                         deadline_s=deadline),
                TaskSpec("t1", work=7.0, inputs=("d1",),
                         deadline_s=deadline),
                TaskSpec("t2", work=1.0, deadline_s=deadline),
            ]
            for task in tasks:
                assert (strategy.select_site(task, ctx)
                        == _scalar_reference(ref_name, task, ctx))

    @pytest.mark.parametrize("ref_name,strategy", STRATEGY_CASES)
    def test_exact_ties_break_identically(self, ref_name, strategy):
        """Identical sites and symmetric links produce exact float ties
        on every axis; the vectorized pass must keep the scalar
        first-wins (or name-order) winner."""
        topo = Topology("ties")
        hub = Site("hub", Tier.CLOUD, speed=4.0)
        topo.add_site(hub)
        clones = []
        for i in range(4):
            s = Site(f"clone{i}", Tier.FOG, speed=2.0,
                     power=PowerModel(busy_watts=10.0),
                     pricing=PricingModel(usd_per_core_hour=0.5))
            topo.add_site(s)
            topo.add_link("hub", s.name, Link(0.01, 1e8, usd_per_gb=0.02))
            clones.append(s)
        catalog = ReplicaCatalog()
        catalog.register(Dataset("d0", 1e7))
        catalog.add_replica("d0", "hub")
        ctx = SchedulingContext(
            topo, catalog, candidate_sites=[s.name for s in clones])
        task = TaskSpec("t", work=3.0, inputs=("d0",), deadline_s=100.0)
        assert (strategy.select_site(task, ctx)
                == _scalar_reference(ref_name, task, ctx))


# Datasets of the fold world beyond "big" and "empty": a source pair
# that ties on time (s2, s3), one held only on the unreachable island,
# one whose first source is the island, and one huge next to eight small
# ones — with a single candidate, summing nine or more of these in any
# order but task.inputs order changes the last bits.
_FOLD_EXTRA = (("pair", 3e6, ("s2", "s3")), ("isle", 1e6, ("island",)),
               ("moat", 2e6, ("island", "far")),
               ("huge", 1e16, ("far",))) + tuple(
    (f"p{i}", 1.0 + i / 3.0, (f"s{i % 4}",)) for i in range(8))


def _fold_world():
    """A hub with four spokes whose links tie on time but differ in
    $/GB (a tie-break that picks the wrong source shows in dollars), a
    slower far site, and an unreachable island."""
    topo = Topology("fold")
    topo.add_site(Site("hub", Tier.CLOUD))
    for i in range(4):
        topo.add_site(Site(f"s{i}", Tier.EDGE))
        topo.add_link("hub", f"s{i}",
                      Link(0.01, 1e8, usd_per_gb=0.01 * (i + 1)))
    topo.add_site(Site("far", Tier.CLOUD))
    topo.add_link("hub", "far", Link(0.2, 1e7, usd_per_gb=0.001))
    topo.add_site(Site("island", Tier.FOG))
    catalog = ReplicaCatalog()
    catalog.register(Dataset("big", 5e7))
    catalog.register(Dataset("empty", 0.0))
    catalog.add_replica("big", "s0")
    catalog.add_replica("empty", "s1")
    for name, size, held in _FOLD_EXTRA:
        catalog.register(Dataset(name, size))
        for site in held:
            catalog.add_replica(name, site)
    return topo, catalog


_FOLD_SITES = ["hub", "s0", "s1", "s2", "s3", "far", "island"]
_FOLD_DATASETS = ["big", "empty"] + [name for name, _, _ in _FOLD_EXTRA]

_FOLD_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "drop", "forget"]),
              st.sampled_from(["big", "empty"]),
              st.sampled_from(_FOLD_SITES)),
    min_size=1, max_size=25,
)


class TestStagingFoldProperty:
    @settings(max_examples=150, deadline=None)
    @given(ops=_FOLD_OPS)
    def test_warm_equals_cold_and_scalar(self, ops):
        """Random add/drop/forget sequences: the warm model's arrays
        (resumed or restarted folds) equal a cold model's bit for bit,
        and every candidate where a scalar estimate exists equals it."""
        topo, catalog = _fold_world()
        warm = CostModel(topo, catalog)
        sites = topo.sites
        task = TaskSpec("t", work=3.0, inputs=("big", "empty"))
        fields = ("stage_time_s", "exec_time_s", "bytes_moved", "energy_j",
                  "compute_usd", "transfer_usd")
        for op, name, site in ops:
            held = catalog.locations(name)
            if op == "add":
                catalog.add_replica(name, site)
            elif op == "drop" and site in held and len(held) > 1:
                catalog.drop_replica(name, site)
            elif op == "forget":
                warm.forget_dataset(name)
            got = warm.estimate_batch(task, sites)
            cold = CostModel(topo, catalog).estimate_batch(task, sites)
            for field in fields:
                assert (getattr(got, field).tobytes()
                        == getattr(cold, field).tobytes()), field
            for i, s in enumerate(sites):
                try:
                    scalar = warm.estimate(task, s)
                except TopologyError:   # a route the scalar path rejects
                    continue
                assert got.at(i) == scalar


_FAN_IN_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "drop", "forget"]),
                  st.sampled_from(_FOLD_DATASETS),
                  st.sampled_from(_FOLD_SITES)),
        st.tuples(st.just("estimate"),
                  st.permutations(_FOLD_DATASETS),
                  st.integers(1, len(_FOLD_DATASETS)),
                  st.lists(st.sampled_from(_FOLD_SITES), min_size=1,
                           unique=True)),
    ),
    min_size=1, max_size=20,
)


def _stage_entries(model):
    """The stage cache as comparable bytes."""
    return {
        (name, names): (epoch, dsver, sources, t_best.tobytes(),
                        u_best.tobytes(),
                        None if arrays is None
                        else tuple(a.tobytes() for a in arrays))
        for name, per_names in model._stage_cache.items()
        for names, (epoch, dsver, sources, t_best, u_best, arrays)
        in per_names.items()
    }


class TestBlockStagingMatchesPerInputOracle:
    @settings(max_examples=200, deadline=None)
    @given(steps=_FAN_IN_STEPS)
    @example(steps=[("estimate", ["huge"] + [f"p{i}" for i in range(8)],
                     9, ["hub"])])
    def test_fan_in_bits_and_cache_entries(self, steps):
        """Fan-in tasks over random orders of cold single- and
        multi-source, cached, appended-source, zero-byte and island
        datasets: the one-block build equals the frozen per-input build
        (tests/oracles/staging.py) in all six arrays and in every stage
        cache entry, bit for bit."""
        topo, catalog = _fold_world()
        model, oracle = CostModel(topo, catalog), CostModel(topo, catalog)
        fields = ("stage_time_s", "exec_time_s", "bytes_moved", "energy_j",
                  "compute_usd", "transfer_usd")
        for step in steps:
            if step[0] == "estimate":
                _, order, k, candidates = step
                task = TaskSpec("t", work=3.0, inputs=tuple(order[:k]))
                sites = [topo.site(name) for name in candidates]
                got = model.estimate_batch(task, sites)
                want = staging.estimate_batch(oracle, task, sites)
                for field in fields:
                    assert (getattr(got, field).tobytes()
                            == getattr(want, field).tobytes()), field
                assert _stage_entries(model) == _stage_entries(oracle)
                continue
            op, name, site = step
            held = catalog.locations(name)
            if op == "add":
                catalog.add_replica(name, site)
            elif op == "drop" and site in held and len(held) > 1:
                catalog.drop_replica(name, site)
            elif op == "forget":
                model.forget_dataset(name)
                oracle.forget_dataset(name)
