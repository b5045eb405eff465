"""Cluster-level job execution: the discrete-event JobTracker.

Runs a :class:`~repro.apps.base.AppJob`'s job over a simulated cluster.
The simulator is one more task transport under the one job plan,
:meth:`repro.exec.base.Executor.run`, so faults, node-combine, net
shuffle and lint apply here exactly as on every other backend; the
transport decides only where and when each task runs:

1. the input is staged into a DFS over the cluster's hosts
   (:func:`~repro.cluster.placement.stage_locality`), so every split
   inherits its block's replica hosts;
2. the **map wave** is scheduled over the nodes' map slots with
   locality preference; each assignment *actually executes* the map
   task through the shared attempt loop (so frequency-buffering's
   per-node frequent-key sharing follows the real scheduling order) and
   its modelled duration is ``duration_work / node.speed`` plus a
   remote read penalty when the split was not local;
3. the **reduce wave** starts when the last map finishes (no slow-start,
   a documented simplification); each reduce task executes for real and
   its duration adds the network model's shuffle transfer time.

The result carries the modelled job runtime — the quantity Tables III
and IV compare across optimization configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.base import AppJob
from ..engine.inputformat import TextInput
from ..engine.runner import JobResult, lint_at_submit
from ..errors import ReproError
from ..exec.base import Executor, Task, run_with_retries
from .placement import stage_locality
from .scheduler import Placement, TaskRequest, schedule_wave
from .specs import ClusterSpec


@dataclass
class ClusterJobResult(JobResult):
    """A job result plus the modelled schedule it ran on."""

    cluster_name: str = ""
    runtime_seconds: float = 0.0
    map_phase_seconds: float = 0.0
    reduce_phase_seconds: float = 0.0
    map_placements: list[Placement] = field(default_factory=list)
    reduce_placements: list[Placement] = field(default_factory=list)

    @property
    def data_local_fraction(self) -> float:
        if not self.map_placements:
            return 0.0
        return sum(p.data_local for p in self.map_placements) / len(self.map_placements)


class ClusterJobRunner:
    """Executes one job per the discrete-event cluster model.

    Pass a :class:`~repro.cluster.policy.SpeculationPolicy` to turn
    on straggler mitigation: after the map wave is planned, lagging
    tasks get backup attempts on free slots and complete at the faster
    attempt's end — the classic MapReduce answer to heterogeneous nodes.
    """

    def __init__(self, cluster: ClusterSpec, speculation=None) -> None:
        self.cluster = cluster
        self.speculation = speculation
        self.map_backups_launched = 0
        self.map_backups_won = 0

    def run(self, app: AppJob) -> ClusterJobResult:
        job, lint_report = lint_at_submit(app.job)
        transport = _SimulatedCluster(self.cluster, self.speculation)
        result = transport.run(job)
        result.lint_report = lint_report
        self.map_backups_launched, self.map_backups_won = transport.backups
        maps, reduces = transport.placements["map"], transport.placements["reduce"]
        map_end = transport.map_end
        job_end = max((p.end for p in reduces), default=map_end)
        return ClusterJobResult(
            **vars(result),
            cluster_name=self.cluster.name,
            runtime_seconds=job_end,
            map_phase_seconds=map_end,
            reduce_phase_seconds=job_end - map_end,
            map_placements=maps,
            reduce_placements=reduces,
        )


class _SimulatedCluster(Executor):
    """The task transport: one :func:`schedule_wave` per phase, each
    task attempt run in the wave's duration callback on its node."""

    name = "simulator"

    def __init__(self, cluster: ClusterSpec, speculation) -> None:
        super().__init__(workers=1)
        self.cluster = cluster
        self.speculation = speculation
        self.backups = (0, 0)
        self.map_end = 0.0
        self.placements: dict[str, list[Placement]] = {"map": [], "reduce": []}

    def open(self, job) -> None:
        if not isinstance(job.input_format, TextInput):
            raise TypeError(
                "cluster runs require TextInput jobs (all registered apps use it)"
            )
        self.locality = stage_locality(job, self.cluster.hosts)
        self.node_state: dict[str, dict] = {host: {} for host in self.cluster.hosts}

    def run_tasks(self, tasks, fetch_results):
        kind = "map" if fetch_results is None else "reduce"
        by_id = {task.key: task for task in tasks}
        outcomes: dict[str, tuple] = {}

        def execute(request: TaskRequest, host: str) -> float:
            task = by_id[request.task_id]
            try:
                outcomes[task.key] = run_with_retries(
                    self.job, task, self.splits, fetch_results, host,
                    shared_state=self.node_state[host],
                    attempts_out=self.task_attempts,
                )
            except ReproError as error:
                attempts = self.task_attempts.get(task.key, 0)
                outcomes[task.key] = (task.key, attempts, None, error)
                return 0.0
            return self._duration(task, host, outcomes[task.key][2], fetch_results)

        requests = [
            TaskRequest(
                task.key,
                self.locality.preferred_hosts(task.payload) if kind == "map" else (),
            )
            for task in tasks
        ]
        placements = schedule_wave(
            self.cluster, requests, execute,
            slots_attr=f"{kind}_slots",
            start_time=self.map_end if kind == "reduce" else 0.0,
        )
        failed = any(outcome[3] is not None for outcome in outcomes.values())
        if kind == "map" and self.speculation is not None and not failed:
            from .speculation import apply_speculation

            # Backups redo the same deterministic work on another node;
            # the finished result gives the work, the node its speed.
            outcome = apply_speculation(
                self.cluster,
                placements,
                {r.task_id: r for r in requests},
                lambda r, host: self._duration(
                    by_id[r.task_id], host, outcomes[r.task_id][2], None
                ),
                self.speculation,
                slots_attr="map_slots",
            )
            placements = outcome.placements
            self.backups = (outcome.backups_launched, outcome.backups_won)
        self.placements[kind] = placements
        if kind == "map":
            self.map_end = max((p.end for p in placements), default=0.0)
        return [outcomes[task.key] for task in tasks]

    def _duration(self, task: Task, host: str, result, fetch_results) -> float:
        """Modelled seconds of *task*'s finished attempt on *host*."""
        network = self.cluster.network
        seconds = result.duration_work / self.cluster.node(host).speed
        if task.kind == "reduce":
            transfer = (
                result.remote_shuffle_bytes / network.bandwidth_per_flow
                + network.latency * len(fetch_results)
            )
            return seconds + transfer
        if not self.locality.data_local(task.payload, host):
            split = self.splits[task.payload]
            seconds += split.length / network.bandwidth_per_flow + network.latency
        return seconds
