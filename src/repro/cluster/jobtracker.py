"""Cluster-level job execution: the discrete-event JobTracker.

Runs a :class:`~repro.apps.base.AppJob`'s job over a simulated cluster:

1. the input file is loaded into the simulated DFS (replicated blocks
   over the cluster's datanodes) and splits inherit block locality;
2. the **map wave** is scheduled over the nodes' map slots with
   locality preference; each assignment *actually executes* the map
   task through the engine (so frequency-buffering's per-node
   frequent-key sharing follows the real scheduling order) and its
   modelled duration is ``duration_work / node.speed`` plus a remote
   read penalty when the split was not local;
3. the **reduce wave** starts when the last map finishes (no slow-start,
   a documented simplification); each reduce task executes for real and
   its duration adds the network model's shuffle transfer time.

The result carries the modelled job runtime — the quantity Tables III
and IV compare across optimization configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..apps.base import AppJob
from ..config import Keys
from ..dfs.client import DfsCluster
from ..engine.counters import Counters
from ..errors import JobFailedError, UserCodeError
from ..engine.inputformat import TextInput
from ..engine.instrumentation import Ledger, TaskInstruments
from ..engine.job import JobSpec
from ..engine.maptask import MapTaskResult, MapTaskRunner
from ..engine.reducetask import ReduceTaskResult, ReduceTaskRunner
from ..engine.runner import build_collector
from ..exec.base import check_choices
from ..io.blockdisk import LocalDisk
from ..io.linereader import FileSplit
from .scheduler import Placement, TaskRequest, schedule_wave
from .specs import ClusterSpec


@dataclass
class ClusterJobResult:
    """Outcome of one cluster-simulated job."""

    job_name: str
    cluster_name: str
    runtime_seconds: float
    map_phase_seconds: float
    reduce_phase_seconds: float
    map_placements: list[Placement]
    reduce_placements: list[Placement]
    map_results: list[MapTaskResult]
    reduce_results: list[ReduceTaskResult]
    ledger: Ledger
    counters: Counters
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def data_local_fraction(self) -> float:
        if not self.map_placements:
            return 0.0
        return sum(p.data_local for p in self.map_placements) / len(self.map_placements)


class ClusterJobRunner:
    """Executes one job per the discrete-event cluster model.

    Pass a :class:`~repro.cluster.speculation.SpeculationConfig` to turn
    on straggler mitigation: after each wave is planned, lagging tasks
    get backup attempts on free slots and complete at the faster
    attempt's end — the classic MapReduce answer to heterogeneous nodes.
    """

    def __init__(self, cluster: ClusterSpec, speculation=None) -> None:
        self.cluster = cluster
        self.speculation = speculation
        self.map_backups_launched = 0
        self.map_backups_won = 0

    def run(self, app: AppJob) -> ClusterJobResult:
        job = app.job
        check_choices(job)
        input_format = job.input_format
        if not isinstance(input_format, TextInput):
            raise TypeError(
                "cluster runs require TextInput jobs (all registered apps use it)"
            )

        # ------------------------------------------------------------------
        # 1. load input into the DFS; derive locality-hinted splits
        # ------------------------------------------------------------------
        dfs = DfsCluster(
            self.cluster.hosts,
            block_size=max(1, input_format.split_size),
            replication=min(3, len(self.cluster.hosts)),
        )
        client = dfs.client()
        client.write_file(input_format.path, input_format.data)
        splits = client.compute_splits(input_format.path, input_format.split_size)

        # ------------------------------------------------------------------
        # 2. map wave
        # ------------------------------------------------------------------
        node_shared_state: dict[str, dict] = {host: {} for host in self.cluster.hosts}
        map_results_by_id: dict[str, MapTaskResult] = {}
        split_by_task: dict[str, FileSplit] = {}
        requests = []
        for index, split in enumerate(splits):
            task_id = f"{job.name}.m{index:04d}"
            split_by_task[task_id] = split
            requests.append(TaskRequest(task_id, split.hosts))

        def map_duration(task: TaskRequest, host: str) -> float:
            result = self._execute_map(
                job, split_by_task[task.task_id], task.task_id, host,
                node_shared_state[host],
            )
            map_results_by_id[task.task_id] = result
            node = self.cluster.node(host)
            duration = result.duration_work / node.speed
            if host not in split_by_task[task.task_id].hosts:
                duration += (
                    split_by_task[task.task_id].length
                    / self.cluster.network.bandwidth_per_flow
                    + self.cluster.network.latency
                )
            return duration

        map_placements = schedule_wave(
            self.cluster, requests, map_duration, slots_attr="map_slots"
        )

        if self.speculation is not None:
            from .speculation import apply_speculation

            def backup_duration(task: TaskRequest, host: str) -> float:
                # Backups redo the same deterministic work on another node;
                # the cached result gives the work, the node its speed.
                result = map_results_by_id[task.task_id]
                node = self.cluster.node(host)
                duration = result.duration_work / node.speed
                split = split_by_task[task.task_id]
                if host not in split.hosts:
                    duration += (
                        split.length / self.cluster.network.bandwidth_per_flow
                        + self.cluster.network.latency
                    )
                return duration

            outcome = apply_speculation(
                self.cluster,
                map_placements,
                {r.task_id: r for r in requests},
                backup_duration,
                self.speculation,
                slots_attr="map_slots",
            )
            map_placements = outcome.placements
            self.map_backups_launched = outcome.backups_launched
            self.map_backups_won = outcome.backups_won

        map_end = max(p.end for p in map_placements)
        map_results = [map_results_by_id[r.task_id] for r in requests]

        # ------------------------------------------------------------------
        # 3. reduce wave (starts at the map barrier)
        # ------------------------------------------------------------------
        num_reducers = job.num_reducers
        reduce_results_by_id: dict[str, ReduceTaskResult] = {}
        reduce_requests = [
            TaskRequest(f"{job.name}.r{p:04d}") for p in range(num_reducers)
        ]
        partition_by_task = {
            request.task_id: p for p, request in enumerate(reduce_requests)
        }

        def reduce_duration(task: TaskRequest, host: str) -> float:
            partition = partition_by_task[task.task_id]
            result = self._execute_reduce(job, partition, map_results, task.task_id, host)
            reduce_results_by_id[task.task_id] = result
            node = self.cluster.node(host)
            network = self.cluster.network
            transfer = (
                result.remote_shuffle_bytes / network.bandwidth_per_flow
                + network.latency * len(map_results)
            )
            return result.duration_work / node.speed + transfer

        reduce_placements = schedule_wave(
            self.cluster,
            reduce_requests,
            reduce_duration,
            slots_attr="reduce_slots",
            start_time=map_end,
        )
        job_end = max(p.end for p in reduce_placements)
        reduce_results = [reduce_results_by_id[r.task_id] for r in reduce_requests]

        ledger = Ledger.summed(
            [r.ledger for r in map_results] + [r.ledger for r in reduce_results]
        )
        counters = Counters.summed(
            [r.counters for r in map_results] + [r.counters for r in reduce_results]
        )
        return ClusterJobResult(
            job_name=job.name,
            cluster_name=self.cluster.name,
            runtime_seconds=job_end,
            map_phase_seconds=map_end,
            reduce_phase_seconds=job_end - map_end,
            map_placements=map_placements,
            reduce_placements=reduce_placements,
            map_results=map_results,
            reduce_results=reduce_results,
            ledger=ledger,
            counters=counters,
            info={"app": app.app_name, "splits": len(splits)},
        )

    # ------------------------------------------------------------------
    def _retry(self, job: JobSpec, task_id: str, make_attempt):
        """Task-attempt retry loop (matching LocalJobRunner's semantics)."""
        max_attempts = job.conf.get_positive_int(Keys.TASK_MAX_ATTEMPTS)
        last_error: UserCodeError | None = None
        for _attempt in range(max_attempts):
            try:
                return make_attempt()
            except UserCodeError as exc:
                last_error = exc
        raise JobFailedError(
            f"task {task_id} failed {max_attempts} attempts; last error: {last_error}"
        ) from last_error

    def _execute_map(
        self,
        job: JobSpec,
        split: FileSplit,
        task_id: str,
        host: str,
        shared_state: dict,
    ) -> MapTaskResult:
        def attempt() -> MapTaskResult:
            disk = LocalDisk(f"{host}.{task_id}")
            instruments = TaskInstruments(Ledger())
            counters = Counters()
            collector = build_collector(
                job, task_id, disk, instruments, counters, shared_state
            )
            runner = MapTaskRunner(
                job, split, task_id, disk, collector, instruments, counters, host
            )
            return runner.run()

        return self._retry(job, task_id, attempt)

    def _execute_reduce(
        self,
        job: JobSpec,
        partition: int,
        map_results: list[MapTaskResult],
        task_id: str,
        host: str,
    ) -> ReduceTaskResult:
        def attempt() -> ReduceTaskResult:
            instruments = TaskInstruments(Ledger())
            counters = Counters()
            runner = ReduceTaskRunner(
                job, partition, map_results, task_id, instruments, counters, host
            )
            return runner.run()

        return self._retry(job, task_id, attempt)
