"""Placement strategies: the answers to "where should I compute?".

Baselines (fixed, random, round-robin), list schedulers (greedy EFT,
HEFT, min-min, max-min), objective-specialized planners (data gravity,
latency/SLO), a weighted multi-objective combiner (energy or dollars
alone are its one-objective weightings), and an online bandit that
learns placements from observed turnarounds.

:func:`strategy_catalog` builds the standard comparison set used by E2.
"""

from repro.core.strategies.base import PlacementStrategy
from repro.core.strategies.fixed import FixedSiteStrategy, TierStrategy
from repro.core.strategies.simple import RandomStrategy, RoundRobinStrategy
from repro.core.strategies.greedy import GreedyEFTStrategy, HEFTStrategy
from repro.core.strategies.batch import MaxMinStrategy, MinMinStrategy
from repro.core.strategies.data_gravity import DataGravityStrategy
from repro.core.strategies.aware import LatencyAwareStrategy
from repro.core.strategies.multi_objective import (
    MultiObjectiveStrategy,
    pareto_front,
)
from repro.core.strategies.adaptive import AdaptiveUCBStrategy


def strategy_catalog(include_adaptive: bool = False) -> list[PlacementStrategy]:
    """The standard E2 comparison set, cheapest-to-smartest."""
    strategies: list[PlacementStrategy] = [
        TierStrategy("edge"),
        TierStrategy("cloud"),
        RandomStrategy(),
        RoundRobinStrategy(),
        DataGravityStrategy(),
        MinMinStrategy(),
        MaxMinStrategy(),
        GreedyEFTStrategy(),
        HEFTStrategy(),
    ]
    if include_adaptive:
        strategies.append(AdaptiveUCBStrategy())
    return strategies


__all__ = [
    "PlacementStrategy",
    "FixedSiteStrategy",
    "TierStrategy",
    "RandomStrategy",
    "RoundRobinStrategy",
    "GreedyEFTStrategy",
    "HEFTStrategy",
    "MinMinStrategy",
    "MaxMinStrategy",
    "DataGravityStrategy",
    "LatencyAwareStrategy",
    "MultiObjectiveStrategy",
    "pareto_front",
    "AdaptiveUCBStrategy",
    "strategy_catalog",
]
