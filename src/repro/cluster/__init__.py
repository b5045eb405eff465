"""Cluster layer: discrete-event simulation (specs, locality-aware slot
scheduling, the JobTracker — a task transport under the one job plan)
plus the real master/worker runtime in :mod:`repro.cluster.runtime`.
Both place tasks by :mod:`repro.cluster.placement` and speculate by the
shared :class:`~repro.cluster.policy.SpeculationPolicy`."""

from .jobtracker import ClusterJobResult, ClusterJobRunner
from .policy import SpeculationPolicy
from .scheduler import Placement, TaskRequest, schedule_wave
from .simclock import EventQueue
from .speculation import (
    SpeculativeOutcome,
    apply_speculation,
    heterogeneous_cluster,
)
from .specs import (
    PRESET_CLUSTERS,
    ClusterSpec,
    NetworkSpec,
    NodeSpec,
    ec2_cluster,
    local_cluster,
)

__all__ = [
    "ClusterJobResult",
    "ClusterJobRunner",
    "ClusterSpec",
    "EventQueue",
    "NetworkSpec",
    "NodeSpec",
    "PRESET_CLUSTERS",
    "Placement",
    "SpeculationPolicy",
    "SpeculativeOutcome",
    "apply_speculation",
    "heterogeneous_cluster",
    "TaskRequest",
    "ec2_cluster",
    "local_cluster",
    "schedule_wave",
]
