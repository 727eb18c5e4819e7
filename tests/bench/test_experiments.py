"""Every experiment runs, and the keynote's shape claims hold on its rows.

The keynote publishes no numbers, so this repository reproduces it
through shape claims: who wins, where a crossover falls, which rows stay
at zero. ``CLAIMS`` is the one checked table of them. Each claim is a
predicate over one experiment's seed-0 rows, registered for the mode
(quick or full) it must hold in, and carries the phrase of that
experiment's EXPERIMENTS.md section that it checks. Each (experiment,
mode) pair runs once per session, whatever number of claims reads it.
"""

import functools
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.bench import EXPERIMENTS
from repro.bench.e02_strategies import place_externals
from repro.bench.e14_topology_zoo import _families, _intensities
from repro.continuum import science_grid
from repro.datafabric import Dataset

EXPERIMENTS_MD = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                              "EXPERIMENTS.md")


@dataclass(frozen=True)
class Claim:
    name: str
    experiment: str
    mode: str                              # "quick" or "full"
    expected: str                          # phrase of EXPERIMENTS.md
    check: Callable[[list[dict]], None]    # asserts over the rows


CLAIMS: list[Claim] = []


def claim(experiment: str, expected: str, mode: str = "quick"):
    """Register the decorated row predicate as a claim."""
    def register(check):
        CLAIMS.append(Claim(check.__name__, experiment, mode, expected, check))
        return check
    return register


@functools.cache
def run(experiment: str, mode: str):
    """The seed-0 run that every test of this module shares."""
    return EXPERIMENTS[experiment](quick=mode == "quick", seed=0)


def where(rows, **match):
    """The rows whose fields equal ``match``."""
    return [r for r in rows if all(r.get(k) == v for k, v in match.items())]


def only(rows, field, **match):
    """``field`` of the one row matching ``match``."""
    matches = where(rows, **match)
    assert len(matches) == 1, \
        f"expected 1 row matching {match}, got {len(matches)}"
    return matches[0][field]


def crossed_earlier(calm, stormy):
    """Offload starts paying at a lower bandwidth scale under churn."""
    return (not math.isnan(stormy["crossover_x"])
            and (math.isnan(calm["crossover_x"])
                 or stormy["crossover_x"] <= calm["crossover_x"]))


# -- E1 ---------------------------------------------------------------------

@claim("E1", "simulated times within a few % of the analytic model")
def e1_sim_tracks_analytic(rows):
    # no contention in a single-flow world: within 2% on both sides
    for r in rows:
        assert abs(r["sim_local_s"] - r["analytic_local_s"]) \
            <= 0.02 * r["analytic_local_s"]
        assert abs(r["sim_remote_s"] - r["analytic_remote_s"]) \
            <= 0.02 * r["analytic_remote_s"]


@claim("E1", "a single local-vs-offload flip along the bandwidth sweep")
def e1_single_crossover(rows):
    wins = [r["offload_wins_sim"] for r in rows]
    assert sum(a != b for a, b in zip(wins, wins[1:])) == 1
    assert not wins[0]      # thin pipe: locality wins
    assert wins[-1]         # fat pipe: disintegration


@claim("E1", "the simulator picks the analytic winner at every grid point")
def e1_sim_picks_analytic_winner(rows):
    for r in rows:
        assert bool(r["offload_wins_sim"]) == bool(r["offload_wins_analytic"])


# -- E2 ---------------------------------------------------------------------

@claim("E2", "greedy-EFT/HEFT dominate makespan")
def e2_informed_schedulers_beat_baselines(rows):
    for workload in ("beamline", "climate", "layered"):
        by_strategy = {r["strategy"]: r for r in where(rows, workload=workload)}
        smart = min(by_strategy["greedy-eft"]["makespan_s"],
                    by_strategy["heft"]["makespan_s"])
        for baseline in ("edge-only", "random", "round-robin"):
            assert smart <= by_strategy[baseline]["makespan_s"]


@claim("E2", "greedy-EFT/HEFT dominate makespan")
def e2_list_scheduler_wins_climate(rows):
    best = min(where(rows, workload="climate"), key=lambda r: r["makespan_s"])
    assert best["strategy"] in ("greedy-eft", "heft", "min-min", "max-min")


@claim("E2", "gravity ≤ the scattering baselines")
def e2_gravity_moves_no_more_than_scatterers(rows):
    for workload in ("beamline", "climate", "layered"):
        by_strategy = {r["strategy"]: r for r in where(rows, workload=workload)}
        gravity = by_strategy["data-gravity"]["bytes_moved"]
        for scattering in ("random", "round-robin"):
            assert gravity <= by_strategy[scattering]["bytes_moved"] + 1e-6


@claim("E2", "edge-only suffers on compute-heavy work")
def e2_edge_only_suffers_on_climate(rows):
    climate = {r["strategy"]: r for r in where(rows, workload="climate")}
    assert climate["edge-only"]["makespan_s"] > \
        3 * climate["greedy-eft"]["makespan_s"]


@claim("E2", "cloud-only pays egress dollars")
def e2_cloud_only_pays_egress(rows):
    climate = {r["strategy"]: r for r in where(rows, workload="climate")}
    assert climate["cloud-only"]["cost_usd"] > 0


# -- E3 (tasks_per_s is host time) ------------------------------------------

@claim("E3", "throughput within a small factor across the sweep")
def e3_throughput_within_10x(rows):
    rates = [r["tasks_per_s"] for r in where(rows, sweep="tasks")]
    assert len(rates) >= 3
    assert max(rates) / min(rates) < 10


@claim("E3", "at least 200 tasks/s at the largest quick size")
def e3_throughput_floor(rows):
    assert where(rows, sweep="tasks")[-1]["tasks_per_s"] > 200


@claim("E3", "more sites find schedules no slower")
def e3_more_sites_no_slower(rows):
    sites = where(rows, sweep="sites")
    assert sites[-1]["makespan_s"] <= sites[0]["makespan_s"]


# -- E4 ---------------------------------------------------------------------

@claim("E4", "warm ≫ cold on short functions (10x+)")
def e4_cold_p95_10x_warm(rows):
    assert only(rows, "p95_ms", scenario="keep-alive=0s") > \
        10 * only(rows, "p95_ms", scenario="keep-alive=60s")


@claim("E4", "cold fraction → 0 as keep-alive TTL grows")
def e4_cold_fraction_falls_with_ttl(rows):
    assert only(rows, "cold_fraction", scenario="keep-alive=0s") == 1.0
    assert only(rows, "cold_fraction", scenario="keep-alive=60s") < 0.05


@claim("E4", "batching raises p50 while cutting busy time per request")
def e4_batching_trades_p50_for_busy_time(rows):
    batches = [r for r in rows if r["scenario"].startswith("batch")]
    passthrough = next(r for r in batches if "<=~1," in r["scenario"])
    batched = next(r for r in batches if "<=~4," in r["scenario"])
    assert batched["p50_ms"] > passthrough["p50_ms"]
    assert batched["busy_s_per_req"] < passthrough["busy_s_per_req"]
    assert batched["mean_batch"] > 1.0


@claim("E4", "an elastic pool keeps the warm p50 from a small mean pool")
def e4_elastic_pool_keeps_median(rows):
    assert only(rows, "mean_workers", scenario="autoscale(1..8)") < 4.0
    assert only(rows, "p50_ms", scenario="autoscale(1..8)") <= \
        1.5 * only(rows, "p50_ms", scenario="keep-alive=60s")


# -- E5 ---------------------------------------------------------------------

@claim("E5", "edge placement flat in RTT")
def e5_edge_flat_in_rtt(rows):
    edge = [r["satisfaction"] for r in where(rows, policy="edge")]
    assert max(edge) - min(edge) < 0.05
    assert min(edge) > 0.9


@claim("E5", "cloud placement collapses once RTT eats the deadline slack")
def e5_cloud_collapses(rows):
    cloud = where(rows, policy="cloud")
    assert cloud[0]["satisfaction"] > 0.9     # low latency: fine
    assert cloud[-1]["satisfaction"] < 0.1    # 400 ms one-way: hopeless


@claim("E5", "the estimate-driven policy tracks the upper envelope")
def e5_smart_tracks_envelope(rows):
    for e, c, s in zip(where(rows, policy="edge"), where(rows, policy="cloud"),
                       where(rows, policy="smart")):
        assert s["satisfaction"] >= \
            max(e["satisfaction"], c["satisfaction"]) - 0.05


# -- E6 ---------------------------------------------------------------------

CACHES = ("fifo", "lru", "lfu", "largest")


@claim("E6", "any cache ≪ streaming on bytes moved")
def e6_caches_move_less(rows):
    stream = only(rows, "GB_moved", policy="none (stream)")
    for policy in CACHES:
        assert only(rows, "GB_moved", policy=policy) < stream


@claim("E6", "every cache hits more than 15% of reads")
def e6_caches_hit(rows):
    for policy in CACHES:
        assert only(rows, "hit_rate", policy=policy) > 0.15


@claim("E6", "no cache slows the mean read")
def e6_caches_never_slow_reads(rows):
    stream = only(rows, "mean_read_s", policy="none (stream)")
    for policy in CACHES:
        assert only(rows, "mean_read_s", policy=policy) <= stream


@claim("E6", "LRU/LFU lead on Zipf traffic")
def e6_lfu_beats_fifo(rows):
    assert only(rows, "hit_rate", policy="lfu") >= \
        only(rows, "hit_rate", policy="fifo")


# -- E7 ---------------------------------------------------------------------

@claim("E7", "no single weighting dominates")
def e7_trade_off_surface(rows):
    assert len([r for r in rows if r["on_front"]]) >= 3


@claim("E7", "pure-time is the fastest point")
def e7_pure_time_fastest(rows):
    pure_time = {r["weights"]: r for r in rows}["multi(time=1)"]
    assert pure_time["makespan_s"] == min(r["makespan_s"] for r in rows)


@claim("E7", "the frugal extremes save energy and dollars at a makespan cost")
def e7_frugal_extremes_pay_in_makespan(rows):
    by_weights = {r["weights"]: r for r in rows}
    time, energy = by_weights["multi(time=1)"], by_weights["multi(energy=1)"]
    assert energy["energy_j"] <= time["energy_j"]
    assert by_weights["multi(usd=1)"]["usd"] <= time["usd"]
    assert energy["makespan_s"] > time["makespan_s"]


# -- E8 ---------------------------------------------------------------------

@claim("E8", "adaptive re-converges within a few episodes")
def e8_adaptive_reconverges(rows):
    post = where(rows, degraded=True)
    assert post, "no post-shift episodes recorded"
    assert post[-1]["adaptive_s"] <= 1.5 * post[-1]["oracle_s"]


@claim("E8", "static's regret grows linearly after it")
def e8_static_keeps_paying(rows):
    post = where(rows, degraded=True)
    first, last = post[0], post[-1]
    assert last["static_s"] > 3 * last["oracle_s"]
    # static's regret keeps growing post-shift, adaptive's stalls
    assert last["cum_regret_adaptive"] - first["cum_regret_adaptive"] < \
        0.5 * (last["cum_regret_static"] - first["cum_regret_static"])


@claim("E8", "adaptive's cumulative regret ends below half of static's")
def e8_adaptive_regret_below_static(rows):
    last = where(rows, degraded=True)[-1]
    assert last["cum_regret_adaptive"] < 0.5 * last["cum_regret_static"]


# -- E9 (real execution, host time) -----------------------------------------

@claim("E9", "<5 ms engine overhead per task")
def e9_engine_overhead_under_5ms(rows):
    assert only(rows, "overhead_us_per_task",
                measure="noop-throughput-serial") < 5000


@claim("E9", "dependency-chain hops take under 1 ms")
def e9_chain_hop_sub_ms(rows):
    assert only(rows, "s_per_hop", measure="chain-latency") < 1e-3


@claim("E9", "memoization ≈ eliminates repeat cost")
def e9_memoization_eliminates_repeats(rows):
    assert only(rows, "speedup", measure="memoization") > 10
    assert only(rows, "memo_hits", measure="memoization") >= 1


@claim("E9", "sleep-bound tasks run at least 2x faster on 8 threads")
def e9_sleeps_parallelize(rows):
    assert only(rows, "speedup", measure="sleep-parallelism") > 2


# -- E10 --------------------------------------------------------------------

@claim("E10", "below the crossover bandwidth, speedup pins at 1.0")
def e10_thin_pipe_stays_local(rows):
    thin = where(rows, bandwidth_Mbps=4.0)
    assert thin and all(not r["offloaded"] for r in thin)
    assert all(r["speedup"] == 1.0 for r in thin)


@claim("E10", "above it, speedup grows with the factor")
def e10_speedup_grows_with_factor(rows):
    fat = max(r["bandwidth_Mbps"] for r in rows)
    speedups = [where(rows, specialization=f, bandwidth_Mbps=fat)[0]["speedup"]
                for f in sorted({r["specialization"] for r in rows})]
    assert all(a < b for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] > 5     # a 16x appliance pays off handsomely


@claim("E10", "speedup never falls as bandwidth grows")
def e10_speedup_monotone_in_bandwidth(rows):
    for f in {r["specialization"] for r in rows}:
        series = [r["speedup"] for r in where(rows, specialization=f)]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))


# -- E11 --------------------------------------------------------------------

@claim("E11", "every run completes (re-placement)")
def e11_every_run_completes(rows):
    assert all(r["completed"] == 24 for r in rows)


@claim("E11", "the fault-free baseline shows no inflation, interruptions "
       "or waste")
def e11_fault_free_baseline(rows):
    for r in where(rows, outage_rate_per_site=0.0):
        assert r["inflation"] == 1.0
        assert r["interruptions"] == 0
        assert r["wasted_exec_s"] == 0.0


@claim("E11", "inflation and wasted work grow with outage rate")
def e11_harshest_rate_hurts(rows):
    harsh = where(rows, outage_rate_per_site=max(
        r["outage_rate_per_site"] for r in rows))
    assert any(r["interruptions"] > 0 for r in harsh)
    assert any(r["inflation"] > 1.0 for r in harsh)
    # the harshest rate is at least as bad as the mildest nonzero one
    for strategy in ("edge-only", "greedy-eft"):
        series = sorted((r for r in where(rows, strategy=strategy)
                         if r["outage_rate_per_site"] > 0),
                        key=lambda r: r["outage_rate_per_site"])
        assert series[-1]["inflation"] >= series[0]["inflation"] * 0.8


# -- E12 --------------------------------------------------------------------

def by_rate(rows, strategy):
    return sorted(where(rows, strategy=strategy),
                  key=lambda r: r["arrival_rate_per_s"])


@claim("E12", "the policies tie")
def e12_tie_below_knee(rows):
    # the lowest rate is under the 1 job/s knee
    assert by_rate(rows, "edge-only")[0]["mean_response_s"] < \
        3 * by_rate(rows, "greedy-eft")[0]["mean_response_s"]


@claim("E12", "edge-only follows the M/M/c hockey stick")
def e12_edge_only_hockey_stick(rows):
    edge, greedy = by_rate(rows, "edge-only"), by_rate(rows, "greedy-eft")
    assert edge[-1]["mean_response_s"] > 5 * greedy[-1]["mean_response_s"]
    responses = [r["mean_response_s"] for r in edge]
    assert all(a <= b + 1e-9 for a, b in zip(responses, responses[1:]))


@claim("E12", "greedy stays flat by spilling to equal-speed cloud slots")
def e12_greedy_stays_flat_by_spilling(rows):
    greedy = by_rate(rows, "greedy-eft")
    assert greedy[-1]["mean_response_s"] < 10 * greedy[0]["mean_response_s"]
    spills = [r["spill_fraction"] for r in greedy]
    assert spills[-1] > spills[0]
    assert spills[-1] > 0.2


@claim("E12", "edge-only never spills")
def e12_edge_only_never_spills(rows):
    assert all(r["spill_fraction"] == 0.0 for r in where(rows,
                                                          strategy="edge-only"))


# -- E13 --------------------------------------------------------------------

def e13_worst(rows, policy):
    return where(rows, intensity=rows[-1]["intensity"], policy=policy)[0]


@claim("E13", "every policy finishes every task", "full")
@claim("E13", "every policy finishes every task")
def e13_no_policy_loses_work(rows):
    assert all(r["lost"] == 0 for r in rows)


@claim("E13", "strictly dominates naive retry on wasted-work % and p99", "full")
def e13_full_dominates_naive(rows):
    naive = e13_worst(rows, "naive-retry")
    full = e13_worst(rows, "backoff+breakers+hedging")
    assert full["wasted_pct"] < naive["wasted_pct"]
    assert full["p99_turnaround_s"] < naive["p99_turnaround_s"]


@claim("E13", "breakers trip or hedges win under the heaviest campaign", "full")
def e13_breakers_or_hedges_fire(rows):
    full = e13_worst(rows, "backoff+breakers+hedging")
    assert full["breaker_trips"] + full["hedges_won"] > 0


@claim("E13", "backoff+budget paces the retries naive retry fires at once",
       "full")
def e13_backoff_paces_retries(rows):
    assert e13_worst(rows, "backoff+budget")["backoff_s"] > 0.0
    assert e13_worst(rows, "naive-retry")["backoff_s"] == 0.0


@claim("E13", "retry amplification is no higher under the full policy", "full")
def e13_retry_amp_no_higher(rows):
    assert e13_worst(rows, "backoff+breakers+hedging")["retry_amp"] <= \
        e13_worst(rows, "naive-retry")["retry_amp"]


# -- E14 --------------------------------------------------------------------

@claim("E14", "every family is measured calm and under churn")
def e14_covers_every_family_and_intensity(rows):
    assert {(r["family"], r["churn"]) for r in rows} == \
        {(fam, i) for fam, _p in _families(True) for i in _intensities(True)}


@claim("E14", "every family is measured calm and under churn", "full")
def e14_six_families(rows):
    assert len({r["family"] for r in rows}) == 6


@claim("E14", "widening the worst/best spread")
def e14_churn_widens_spread_or_lowers_crossover(rows):
    # every churned cell of each family against its calm cell
    by_cell = {(r["family"], r["churn"]): r for r in rows}
    for (family, churn), stormy in by_cell.items():
        if churn != "none":
            calm = by_cell[(family, "none")]
            assert stormy["spread"] > calm["spread"] \
                or crossed_earlier(calm, stormy)


@claim("E14", "widening the worst/best spread", "full")
def e14_high_churn_widens_spread_or_lowers_crossover(rows):
    for family in {r["family"] for r in rows}:
        calm = where(rows, family=family, churn="none")[0]
        stormy = where(rows, family=family, churn="high")[0]
        assert stormy["spread"] > calm["spread"] \
            or crossed_earlier(calm, stormy)


@claim("E14", "lookahead schedulers (greedy-EFT/HEFT) or the core-seeking "
       "baseline win everywhere", "full")
def e14_informed_scheduler_wins_high_churn(rows):
    for family in {r["family"] for r in rows}:
        assert where(rows, family=family, churn="high")[0]["best"] in (
            "greedy-eft", "heft", "min-min", "max-min", "cloud-only",
            "data-gravity")


# -- E16 --------------------------------------------------------------------

@claim("E16", "the cost grows monotonically with lag")
def e16_staleness_cost_grows_with_lag(rows):
    stale = where(rows, mode="stale", partitions="none")
    assert stale == sorted(stale, key=lambda r: r["lag_s"])
    assert stale[-1]["mis"] > stale[0]["mis"]
    assert stale[-1]["waste_mb"] > stale[0]["waste_mb"]


@claim("E16", "eliminate misplacement structurally")
def e16_quorum_eliminates_misplacement(rows):
    quorum, stale = where(rows, mode="quorum"), where(rows, mode="stale")
    assert quorum and stale
    assert all(r["mis"] == 0 and r["waste_mb"] == 0 for r in quorum)
    # at a latency premium
    assert min(r["p99_ms"] for r in quorum) > max(r["p99_ms"] for r in stale)


@claim("E16", "partitions add unavailability windows")
def e16_partitions_cost_availability(rows):
    quorum = where(rows, mode="quorum")
    assert sum(r["unavail_s"] for r in where(quorum, partitions="heavy")) > \
        sum(r["unavail_s"] for r in where(quorum, partitions="none"))


# -- the tests --------------------------------------------------------------

@pytest.mark.parametrize("claim", CLAIMS,
                         ids=lambda c: f"{c.name}-{c.mode}")
def test_claim(claim):
    claim.check(run(claim.experiment, claim.mode).rows)


def test_every_claim_is_documented_and_every_experiment_claimed():
    with open(EXPERIMENTS_MD, encoding="utf-8") as handle:
        chunks = re.split(r"^## ", handle.read(), flags=re.MULTILINE)
    sections = {chunk.split(" ", 1)[0]: " ".join(chunk.split())
                for chunk in chunks}
    for c in CLAIMS:
        assert " ".join(c.expected.split()) in sections.get(c.experiment, ""), \
            f"{c.name}: {c.expected!r} is not in the {c.experiment} section"
    assert set(EXPERIMENTS) <= {c.experiment for c in CLAIMS}


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_quick_mode_produces_rows(exp_id):
    result = run(exp_id, "quick")
    assert result.experiment_id == exp_id
    assert result.rows, f"{exp_id} produced no rows"
    assert result.notes, f"{exp_id} recorded no notes"
    # all rows of an experiment share a coherent schema (subset of union)
    keys = set().union(*(set(r) for r in result.rows))
    assert keys


class TestRegistry:
    def test_all_experiments_registered(self):
        assert sorted(EXPERIMENTS) == [
            "E1", "E10", "E11", "E12", "E13", "E14", "E16", "E2", "E3", "E4",
            "E5", "E6", "E7", "E8", "E9"
        ]


class TestPlaceExternals:
    def test_round_robin_over_peripherals(self):
        topo = science_grid()
        externals = [Dataset(f"d{i}", 1.0) for i in range(4)]
        placed = place_externals(topo, externals)
        sites = {site for _, site in placed}
        for site in sites:
            assert topo.site(site).tier.is_peripheral
        assert len(placed) == 4


class TestDeterminism:
    @pytest.mark.parametrize("exp_id", ["E1", "E2", "E6", "E7", "E10", "E13",
                                        "E14", "E16"])
    def test_same_seed_same_rows(self, exp_id):
        a = EXPERIMENTS[exp_id](quick=True, seed=3)
        b = EXPERIMENTS[exp_id](quick=True, seed=3)
        assert a.rows == b.rows


class TestCLI:
    def test_single_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "E1: Gilder crossover" in out

    def test_unknown_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["E42"]) == 2

    def test_save_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "--save", str(tmp_path / "out"),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert (tmp_path / "out" / "e1.txt").exists()

    def test_warm_cache_replays_identically(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        args = ["E1", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert list((tmp_path / "cache").glob("e1-*.json"))

    def test_jobs_flag_parallel_run(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["E1", "--jobs", "2", "--no-cache",
                     "--save", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "E1: Gilder crossover" in out
        assert (tmp_path / "out" / "e1.txt").exists()
