"""Partition schedules: validation, seeded generation, and their
composition into chaos campaigns."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    PARTITION_STYLES,
    ChaosCampaign,
    PartitionSchedule,
    PartitionWindow,
    poisson_partitions,
)
from repro.continuum import science_grid
from repro.utils.rng import RngRegistry


class TestPartitionWindow:
    def test_valid_window(self):
        w = PartitionWindow(1.0, 5.0, "minority", (0, 1))
        assert w.duration_s == 4.0

    def test_end_must_exceed_start(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(5.0, 5.0, "minority", (0,))

    def test_unknown_style_rejected(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(0.0, 1.0, "mesh", (0,))

    def test_non_leader_styles_need_an_island(self):
        with pytest.raises(ConfigurationError):
            PartitionWindow(0.0, 1.0, "minority")
        # leader style resolves its island live at window start
        assert PartitionWindow(0.0, 1.0, "leader").island == ()


class TestPartitionSchedule:
    def test_add_rejects_non_windows(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule().add("split everything")

    def test_len_and_empty(self):
        schedule = PartitionSchedule()
        assert schedule.empty and len(schedule) == 0
        schedule.add(PartitionWindow(0.0, 1.0, "single", (2,)))
        assert not schedule.empty and len(schedule) == 1

    def test_validate_against_catches_bad_island_ids(self):
        schedule = PartitionSchedule().add(
            PartitionWindow(0.0, 1.0, "minority", (0, 7)))
        with pytest.raises(ConfigurationError):
            schedule.validate_against(5)
        schedule.validate_against(8)


class TestPoissonPartitions:
    def _gen(self, seed=0, **overrides):
        kwargs = dict(rate_per_s=1 / 100.0, horizon_s=2000.0,
                      mean_duration_s=30.0, rngs=RngRegistry(seed))
        kwargs.update(overrides)
        return poisson_partitions(5, **kwargs)

    def test_same_seed_same_schedule(self):
        assert self._gen(3).windows == self._gen(3).windows

    def test_different_seeds_differ(self):
        assert self._gen(0).windows != self._gen(1).windows

    def test_windows_sorted_and_non_overlapping(self):
        windows = self._gen().windows
        assert windows
        for prev, cur in zip(windows, windows[1:]):
            assert prev.end_s <= cur.start_s
        assert all(w.start_s < 2000.0 for w in windows)

    def test_islands_fit_the_cluster(self):
        for w in self._gen().windows:
            assert w.style in PARTITION_STYLES
            assert all(0 <= i < 5 for i in w.island)
            if w.style == "minority":
                assert len(w.island) == 2
            elif w.style == "single":
                assert len(w.island) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_style_draws_interleave_with_onsets(self, seed):
        """Each window's style and island are drawn between its
        duration and the next onset, as one hand-written loop would."""
        rng = RngRegistry(seed).stream("partitions")
        expected, t = [], 0.0
        while True:
            t += float(rng.exponential(100.0))
            if t >= 2000.0:
                break
            duration = max(float(rng.exponential(30.0)), 1e-3)
            style = PARTITION_STYLES[int(rng.integers(len(PARTITION_STYLES)))]
            island = ()
            if style != "leader":
                size = 2 if style == "minority" else 1
                island = tuple(sorted(
                    int(i) for i in rng.permutation(5)[:size]))
            expected.append((t, t + duration, style, island))
            t += duration
        assert [(w.start_s, w.end_s, w.style, w.island)
                for w in self._gen(seed).windows] == expected

    def test_style_restriction_honoured(self):
        schedule = self._gen(styles=("leader",))
        assert all(w.style == "leader" for w in schedule.windows)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            self._gen(styles=("mesh",))
        with pytest.raises(ConfigurationError):
            self._gen(styles=())
        with pytest.raises(ConfigurationError):
            poisson_partitions(1, rate_per_s=0.01, horizon_s=100.0,
                               mean_duration_s=5.0)
        with pytest.raises(ConfigurationError):
            self._gen(rate_per_s=0.0)


class TestCampaignComposition:
    def test_default_campaign_has_no_partitions(self):
        plan = ChaosCampaign(seed=1).build(science_grid())
        assert plan.partitions.empty
        assert plan.partition_count == 0

    def test_partition_knobs_need_cluster_size(self):
        campaign = ChaosCampaign(seed=1, partition_rate_per_s=1 / 100.0)
        plan = campaign.build(science_grid())
        assert plan.partitions.empty
        plan = campaign.build(science_grid(), n_control_sites=5)
        assert not plan.partitions.empty
        plan.partitions.validate_against(5)

    def test_partition_stream_is_orthogonal(self):
        """Turning partitions on must not reshuffle the existing
        outage/brownout draws — same seed, same data-plane plan."""
        calm = ChaosCampaign.preset("medium", seed=4).build(science_grid())
        campaign = ChaosCampaign.preset("medium", seed=4)
        stormy = ChaosCampaign(
            **{**campaign.__dict__, "partition_rate_per_s": 1 / 100.0}
        ).build(science_grid(), n_control_sites=5)
        assert stormy.outages.site_outages == calm.outages.site_outages
        assert stormy.outages.link_brownouts == calm.outages.link_brownouts
        assert stormy.task_chaos.degraded == calm.task_chaos.degraded
        assert not stormy.partitions.empty

    def test_unknown_partition_style_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosCampaign(partition_styles=("mesh",))

    def test_campaign_partition_determinism(self):
        campaign = ChaosCampaign(seed=9, partition_rate_per_s=1 / 50.0)
        a = campaign.build(science_grid(), n_control_sites=5)
        b = campaign.build(science_grid(), n_control_sites=5)
        assert a.partitions.windows == b.partitions.windows
