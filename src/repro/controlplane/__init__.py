"""Replicated federation control plane.

A simulated leader-based replicated log (elections with seeded
randomized timeouts, quorum commit, follower catch-up,
snapshot/compaction) carrying `ReplicaCatalog` and endpoint-registry
mutations across N federation control sites, plus the client session
layer exposing ``quorum`` / ``stale`` / ``lease`` read modes to the
scheduler and datafabric. Single-copy runs never touch
this package — the control plane is strictly opt-in per run.
"""

from repro.controlplane.cluster import (
    READ_MODES,
    ControlPlane,
    ControlPlaneConfig,
    WriteTicket,
)
from repro.controlplane.log import Command, LogEntry, ReplicatedLog, Snapshot
from repro.controlplane.node import RaftNode, Role
from repro.controlplane.runtime import ControlRuntime
from repro.controlplane.session import ControlPlaneSession, ControlPlaneStats
from repro.controlplane.state import ControlState
from repro.controlplane.view import MirroredCatalog, ReplicatedCatalogView

__all__ = [
    "READ_MODES",
    "Command",
    "ControlPlane",
    "ControlPlaneConfig",
    "ControlPlaneSession",
    "ControlPlaneStats",
    "ControlRuntime",
    "ControlState",
    "LogEntry",
    "MirroredCatalog",
    "RaftNode",
    "ReplicatedCatalogView",
    "ReplicatedLog",
    "Role",
    "Snapshot",
    "WriteTicket",
]
