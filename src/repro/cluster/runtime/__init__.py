"""A real master/worker cluster runtime for the ``cluster`` backend.

The simulator next door (:mod:`repro.cluster.jobtracker`) *models* a
cluster; this package *is* one, at laptop scale: a master daemon owning
the job's task graph, worker daemons in separate OS processes
registering over localhost TCP and heartbeating, locality-aware
placement against a staged DFS (:mod:`repro.cluster.placement`, shared
with the simulator), crash recovery under the shared attempt budget,
and speculative re-execution driven by the same
:class:`~repro.cluster.policy.SpeculationPolicy` the simulator uses.

Modules
-------
:mod:`~repro.cluster.runtime.protocol`
    The framed-pickle wire protocol (HELLO/PING/TASK/RESULT/STATS/BYE).
:mod:`~repro.cluster.runtime.membership`
    The heartbeat-driven ALIVE/SUSPECT/DEAD liveness state machine.
:mod:`~repro.cluster.runtime.workerd`
    The worker daemon: task loop, ping thread, per-node shuffle server.
:mod:`~repro.cluster.runtime.master`
    The master's scheduling loop and the :class:`ClusterExecutor`.
"""

from .master import ClusterExecutor, Master
from .membership import Membership, Transition, WorkerRecord, WorkerState

__all__ = [
    "ClusterExecutor",
    "Master",
    "Membership",
    "Transition",
    "WorkerRecord",
    "WorkerState",
]
