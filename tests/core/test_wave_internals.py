"""Unit coverage of the wave-dispatch machinery itself.

The differentials (tests/integration/test_dispatch_differential.py)
prove the wave engine's *output* matches the scalar oracle; these tests
pin the mechanisms that make that true — and fast:

- the cost model's row memo hits on repeated (signature, candidate-set)
  pairs and is invalidated by exactly the events that can change a row:
  topology route changes and catalog version bumps (replica add/drop,
  cache admit/evict, dataset placement);
- the context's availability cache stays bounded under site-flap churn
  (an unbounded dict here grew one vector per distinct candidate tuple,
  i.e. without bound on long churny runs) and its in-place column
  updates keep every cached vector equal to a fresh gather;
- ``strategy.prioritize`` treats the ready batch as immutable and
  breaks priority ties deterministically (the wave generator feeds on
  its order, so instability there is a placement heisenbug).
"""

import numpy as np
import pytest

from repro.continuum import geo_random_continuum
from repro.core.context import _AVAIL_CACHE_MAX, SchedulingContext
from repro.core.cost import CostModel
from repro.core.strategies import AdaptiveUCBStrategy, strategy_catalog
from repro.datafabric import Dataset, ReplicaCatalog
from repro.continuum.link import Link
from repro.workflow import TaskSpec
from tests.oracles.dispatch import UnmemoizedCostModel, scalar_engine


def make_world(n_sites=8, seed=2):
    topo = geo_random_continuum(n_sites, seed=seed)
    catalog = ReplicaCatalog()
    names = topo.site_names
    for i in range(4):
        catalog.register(Dataset(f"d{i}", 1e8))
        catalog.add_replica(f"d{i}", names[i % len(names)])
    return topo, catalog


def task(name="t", work=5.0, inputs=("d0",)):
    return TaskSpec(name, work, inputs=inputs)


class TestRowMemo:
    def test_same_signature_hits_shared_arrays(self):
        topo, catalog = make_world()
        model = CostModel(topo, catalog)
        sites = [topo.site(n) for n in topo.site_names]
        first = model.estimate_batch(task("a"), sites)
        second = model.estimate_batch(task("b"), sites)
        # one row serves both tasks: the ndarrays are the same objects
        assert second.stage_time_s is first.stage_time_s
        assert second.exec_time_s is first.exec_time_s
        # but the estimate is per-task (name travels with the batch)
        assert first.task == "a" and second.task == "b"

    def test_memoized_arrays_are_frozen(self):
        topo, catalog = make_world()
        model = CostModel(topo, catalog)
        sites = [topo.site(n) for n in topo.site_names]
        est = model.estimate_batch(task(), sites)
        with pytest.raises(ValueError):
            est.exec_time_s[0] = 0.0

    def test_distinct_signature_distinct_row(self):
        topo, catalog = make_world()
        model = CostModel(topo, catalog)
        sites = [topo.site(n) for n in topo.site_names]
        a = model.estimate_batch(task("a", inputs=("d0",)), sites)
        b = model.estimate_batch(task("b", inputs=("d1",)), sites)
        assert a.stage_time_s is not b.stage_time_s
        c = model.estimate_batch(task("c", work=9.0), sites)
        assert c.exec_time_s is not a.exec_time_s

    def test_catalog_version_invalidates(self):
        """Replica adds/drops (and cache admits/evictions, which go
        through the same mutators) bump ``catalog.version`` and must
        re-derive the row."""
        topo, catalog = make_world()
        model = CostModel(topo, catalog)
        sites = [topo.site(n) for n in topo.site_names]
        before = model.estimate_batch(task("a"), sites)
        catalog.add_replica("d0", topo.site_names[-1])
        after = model.estimate_batch(task("b"), sites)
        assert after.stage_time_s is not before.stage_time_s
        # the new replica shortens staging somewhere
        assert float(after.stage_time_s.min()) <= \
            float(before.stage_time_s.min())

    def test_topology_epoch_invalidates(self):
        topo, catalog = make_world()
        model = CostModel(topo, catalog)
        sites = [topo.site(n) for n in topo.site_names]
        before = model.estimate_batch(task("a"), sites)
        topo.add_link(topo.site_names[0], topo.site_names[-1],
                      Link(bandwidth_Bps=1e9, latency_s=1e-4))
        after = model.estimate_batch(task("b"), sites)
        assert after.stage_time_s is not before.stage_time_s

    def test_candidate_set_keys_row(self):
        topo, catalog = make_world()
        model = CostModel(topo, catalog)
        all_sites = [topo.site(n) for n in topo.site_names]
        most = all_sites[:-1]
        a = model.estimate_batch(task("a"), all_sites)
        b = model.estimate_batch(task("b"), most)
        assert len(a) != len(b)
        # and returning to the first set hits its row again
        c = model.estimate_batch(task("c"), all_sites)
        assert c.stage_time_s is a.stage_time_s

    def test_row_times_tracks_last_row(self):
        topo, catalog = make_world()
        model = CostModel(topo, catalog)
        sites = [topo.site(n) for n in topo.site_names]
        t = task("a")
        est = model.estimate_batch(t, sites)
        name = sites[3].name
        assert model.row_times(t, name) == (
            float(est.stage_time_s[3]), float(est.exec_time_s[3]))
        # a different task signature must miss, not serve stale floats
        assert model.row_times(task("x", work=99.0), name) is None
        # and so must a post-mutation lookup
        est2 = model.estimate_batch(t, sites)
        catalog.add_replica("d0", topo.site_names[2])
        assert model.row_times(t, name) is None
        assert est2 is not None

    def test_memo_disabled_for_scalar_oracle(self):
        """The scalar engine's context gets a cost model that never
        serves a memoized row or a ``_last_row`` hit, so the oracle
        side of the differential shares no cached arithmetic."""
        topo, catalog = make_world()
        with scalar_engine():
            model = SchedulingContext(topo, catalog).cost
        assert isinstance(model, UnmemoizedCostModel)
        sites = [topo.site(n) for n in topo.site_names]
        a = model.estimate_batch(task("a"), sites)
        b = model.estimate_batch(task("b"), sites)
        assert a.stage_time_s is not b.stage_time_s
        assert np.array_equal(a.stage_time_s, b.stage_time_s)
        assert model._row_cache == {} and model._last_row is None
        assert model.row_times(task("b"), sites[0].name) is None


class TestAvailabilityCache:
    def test_bounded_under_site_flap(self):
        """S1: a loop that flaps sites up/down (distinct candidate
        tuple every round) must not grow the cache past the LRU bound."""
        topo, catalog = make_world(n_sites=10)
        ctx = SchedulingContext(topo, catalog)
        names = topo.site_names
        t = task()
        for r in range(200):
            down = names[r % len(names)]
            also = names[(r * 3 + 1) % len(names)]
            ctx.mark_down(down)
            if also != down:
                ctx.mark_down(also)
            ctx.estimate_finish_batch(t, ctx.candidates)
            ctx.mark_up(down)
            ctx.mark_up(also)
            assert len(ctx._avail_cache) <= _AVAIL_CACHE_MAX
        assert len(ctx._avail_cache) == _AVAIL_CACHE_MAX

    def test_incremental_update_equals_fresh_gather(self):
        """Every cached vector must stay bit-equal to rebuilding it
        from ``_slot_min`` after any pattern of reservations."""
        topo, catalog = make_world(n_sites=6)
        ctx = SchedulingContext(topo, catalog)
        t = task()
        ctx.estimate_finish_batch(t, ctx.candidates)         # all-up tuple
        ctx.mark_down(topo.site_names[0])
        ctx.estimate_finish_batch(t, ctx.candidates)         # one-down tuple
        ctx.mark_up(topo.site_names[0])
        rng = np.random.default_rng(0)
        for i in range(50):
            site = topo.site_names[int(rng.integers(len(topo.site_names)))]
            ctx.reserve(site, float(rng.uniform(1.0, 100.0)))
            for key, (vec, _) in ctx._avail_cache.items():
                fresh = np.fromiter((ctx._slot_min[n] for n in key),
                                    dtype=float, count=len(key))
                assert np.array_equal(vec, fresh)

    def test_reserve_matches_slot_semantics(self):
        """The heap-backed reserve keeps ``est_available`` and
        ``load_of`` exactly as the ndarray argmin/min did."""
        topo, catalog = make_world(n_sites=4)
        ctx = SchedulingContext(topo, catalog)
        site = topo.site_names[0]
        slots = ctx._slots[site]
        rng = np.random.default_rng(1)
        for _ in range(4 * len(slots)):
            finish = float(rng.uniform(0.0, 50.0))
            expect = slots.copy()
            expect[expect.argmin()] = finish
            ctx.reserve(site, finish)
            assert np.array_equal(ctx._slots[site], expect)
            assert ctx.est_available(site) == float(slots.min())


class TestPrioritizePurity:
    def all_strategies(self):
        return strategy_catalog() + [AdaptiveUCBStrategy()]

    def equal_priority_batch(self):
        # identical work and inputs: every priority key ties
        return [TaskSpec(f"t{i}", 4.0, inputs=("d0",)) for i in range(8)]

    def test_batch_never_mutated(self):
        """S3: the ready list the scheduler hands over is scheduler
        state — prioritize must neither reorder nor alter it."""
        topo, catalog = make_world()
        ctx = SchedulingContext(topo, catalog)
        for strategy in self.all_strategies():
            batch = self.equal_priority_batch()
            snapshot = list(batch)
            strategy.prioritize(batch, ctx)
            assert batch == snapshot, strategy.name
            assert [id(t) for t in batch] == [id(t) for t in snapshot]

    def test_equal_priority_order_deterministic(self):
        """Ties keep submission order, and repeated calls agree — the
        wave generator replays this order, so any instability would
        desync the two engines."""
        topo, catalog = make_world()
        ctx = SchedulingContext(topo, catalog)
        for strategy in self.all_strategies():
            batch = self.equal_priority_batch()
            first = [t.name for t in strategy.prioritize(batch, ctx)]
            second = [t.name for t in strategy.prioritize(batch, ctx)]
            assert first == second, strategy.name
            assert first == [t.name for t in batch], strategy.name
