"""The paper's contribution: placement and scheduling across the continuum.

"Where should I compute?" — this package answers it three ways:

- **analytically** (:mod:`repro.core.analytic`): closed-form crossover
  conditions for computing locally vs. shipping data to faster/special
  remote resources (Gilder's disintegration argument),
- **online**, with pluggable :mod:`placement strategies
  <repro.core.strategies>` ranging from fixed-tier baselines through
  HEFT to an adaptive bandit scheduler,
- **empirically**, by executing workflow DAGs on a simulated continuum
  (:class:`ContinuumScheduler`) with real data movement, queueing,
  energy, and monetary accounting.
"""

from repro.core.cost import BatchEstimate, CostModel, TaskEstimate
from repro.core.placement import PlacementDecision, TaskRecord, ScheduleResult
from repro.core.analytic import (
    OffloadDecision,
    crossover_bandwidth,
    offload_analysis,
)
from repro.core.energy_analytic import (
    EnergyDecision,
    EnergyProfile,
    energy_crossover_work,
    energy_offload_analysis,
)
from repro.core.slo import SLOReport, slo_report
from repro.core.scheduler import (
    ContinuumScheduler,
    JobResult,
    SchedulingContext,
    StreamJob,
    StreamResult,
)
from repro.core.strategies import (
    AdaptiveUCBStrategy,
    DataGravityStrategy,
    FixedSiteStrategy,
    GreedyEFTStrategy,
    HEFTStrategy,
    LatencyAwareStrategy,
    MaxMinStrategy,
    MinMinStrategy,
    MultiObjectiveStrategy,
    PlacementStrategy,
    RandomStrategy,
    RoundRobinStrategy,
    TierStrategy,
    strategy_catalog,
)

__all__ = [
    "CostModel",
    "TaskEstimate",
    "BatchEstimate",
    "PlacementDecision",
    "TaskRecord",
    "ScheduleResult",
    "OffloadDecision",
    "crossover_bandwidth",
    "offload_analysis",
    "SLOReport",
    "slo_report",
    "EnergyProfile",
    "EnergyDecision",
    "energy_offload_analysis",
    "energy_crossover_work",
    "ContinuumScheduler",
    "SchedulingContext",
    "StreamJob",
    "StreamResult",
    "JobResult",
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
    "AdaptiveUCBStrategy",
    "strategy_catalog",
]
