"""Federated function-as-a-service substrate (funcX-flavoured).

Functions are registered centrally and invoked on *endpoints* pinned to
continuum sites. The model captures the overheads that make FaaS placement
interesting:

- container **cold/warm starts** with keep-alive expiry,
- **worker-slot queueing** at each endpoint,
- **payload serialization** and network request/response time,
- optional request **batching** (throughput/latency trade-off).

E4 measures these overheads; E5 uses the fabric for SLO experiments.
"""

from repro.faas.function import FunctionDef, FunctionRegistry
from repro.faas.container import ContainerModel
from repro.faas.serialization import SerializationModel
from repro.faas.endpoint import Endpoint, InvocationRecord
from repro.faas.batching import Batcher, BatchPolicy
from repro.faas.autoscaler import Autoscaler, ScalingPolicy
from repro.faas.fabric import FaaSFabric
from repro.faas.routing import estimate_total_latency, pick_endpoint

__all__ = [
    "FunctionDef",
    "FunctionRegistry",
    "ContainerModel",
    "SerializationModel",
    "Endpoint",
    "InvocationRecord",
    "Batcher",
    "BatchPolicy",
    "Autoscaler",
    "ScalingPolicy",
    "FaaSFabric",
    "pick_endpoint",
    "estimate_total_latency",
]
