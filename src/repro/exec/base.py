"""The job plan, and the task-attempt machinery every backend shares.

:meth:`Executor.run` is the one map → node-combine → reduce driver: it
installs the fault plan, computes splits, opens the transport, runs the
map phase, publishes outputs (net shuffle), folds per node, runs the
reduce phase, materializes temp-disk outputs, closes the transport and
assembles the :class:`~repro.engine.runner.JobResult`.  A backend is a
*task transport* — three methods (:meth:`~Executor.open`,
:meth:`~Executor.run_tasks`, :meth:`~Executor.close`) that decide only
*where* task attempts run: the calling thread
(:mod:`repro.exec.serial`), forked worker daemons under a master
(:mod:`repro.cluster.runtime.master`), or the modelled slots of the
cluster simulator (:mod:`repro.cluster.jobtracker`).  The attempt loop
(Hadoop's retry-on-user-failure semantics) and the lost-attempt rule
live here as plain functions every transport calls, in-process or
inside a worker.

Every transport follows one per-node rule: the map tasks one node runs
in one run of a job share one *shared_state* dict (the frozen
frequent-key set and the partition memo).  The serial backend is one
node; each cluster daemon is one node, and a replacement daemon is a
new one that starts empty; the simulator keeps one dict per modelled
host.

Per-task ledgers and counters merge into the job totals in task order,
so a job's summed :class:`~repro.engine.instrumentation.Ledger` is
identical no matter which backend executed it.
"""

from __future__ import annotations

import dataclasses
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

from ..config import DEFAULTS, Keys
from ..engine.counters import Counter, Counters
from ..engine.instrumentation import Ledger, TaskInstruments
from ..engine.job import JobSpec
from ..engine.maptask import MapTaskResult, MapTaskRunner
from ..engine.reducetask import ReduceTaskResult, ReduceTaskRunner
from ..engine.runner import JobResult, build_collector
from ..errors import (
    ConfigError,
    DiskError,
    ExecBackendError,
    JobFailedError,
    ReproError,
    SerdeError,
    UserCodeError,
)
from ..faults.plan import FaultPlan
from ..faults.runtime import installed, task_scope, worker_fault
from ..io.blockdisk import LocalDisk
from ..io.linereader import FileSplit

#: Errors that burn one task attempt and retry with a fresh attempt:
#: user code blew up (Hadoop's classic case), a spill read failed its
#: CRC check, or local disk failed mid-write.  Shuffle errors are *not*
#: here — the fetcher owns that retry loop (per-segment, with backoff),
#: and a fetch that exhausts it is a cluster problem a fresh reduce
#: attempt against the same servers would only repeat.
TRANSIENT_TASK_ERRORS = (UserCodeError, SerdeError, DiskError)


def check_choices(job: JobSpec) -> None:
    """Refuse an unknown ``repro.*`` key, or an enumerated conf value
    outside its choices, with a :class:`~repro.errors.ConfigError`
    naming the key — once, at submit, so a typo or a retired key fails
    the same way on every backend and before any task runs.  Keys
    outside the ``repro.`` namespace belong to the application."""
    from ..io.compression import codec_names

    for key, _value in job.conf.items():
        if key.startswith("repro.") and key not in DEFAULTS:
            raise ConfigError(f"{key} is not a configuration key of this engine")

    choices = {
        Keys.SHUFFLE_MODE: ("mem", "net"),
        Keys.SPILL_COMPRESSION: codec_names(),
    }
    for key, allowed in choices.items():
        value = job.conf.get_str(key)
        if value not in allowed:
            raise ConfigError(f"{key}={value!r} is not one of {', '.join(allowed)}")


def resolve_workers(requested: int) -> int:
    """Map the ``repro.exec.workers`` setting to a concrete count
    (0 means one worker per CPU, Hadoop's slots-per-node analogue)."""
    if requested < 0:
        raise ExecBackendError(f"worker count must be >= 0, got {requested}")
    if requested == 0:
        return os.cpu_count() or 1
    return requested


def map_task_id(job: JobSpec, index: int) -> str:
    return f"{job.name}.m{index:04d}"


def reduce_task_id(job: JobSpec, partition: int) -> str:
    return f"{job.name}.r{partition:04d}"


@dataclass
class Task:
    """One schedulable task with its crash history — the one record the
    driver builds and every scheduler (the cluster master, the
    simulator) carries."""

    key: str  # task id, for attribution
    kind: str  # "map" | "reduce"
    payload: Any  # map: split index; reduce: partition number
    attempt_offset: int = 0  # attempts already consumed (crashed ones)
    crashes: int = 0  # workers this task has killed so far
    preferred_hosts: tuple[str, ...] = ()  # placement hint (cluster only)


def run_with_retries(
    job: JobSpec,
    task: Task,
    splits: list[FileSplit],
    fetch_results: list[MapTaskResult] | None,
    host: str,
    shared_state: dict,
    disk_factory: Callable[[str], LocalDisk] | None = None,
    attempts_out: dict[str, int] | None = None,
) -> tuple:
    """Run one map or reduce task with Hadoop's task-attempt semantics.

    Each attempt gets a fresh mapper/reducer, disk, collector, ledger,
    and counter set; a :data:`TRANSIENT_TASK_ERRORS` exception burns the
    attempt and retries, any other exception propagates immediately.
    A map task reads ``splits[task.payload]`` and shares *shared_state*,
    its node's per-node dict, with the node's other map tasks; a reduce
    task fetches partition ``task.payload`` from *fetch_results*.
    Returns the ``(task_id, attempts, result, None)`` outcome,
    *attempts* being the cumulative number consumed.  *attempts_out*,
    when given, is kept current attempt-by-attempt so callers observe
    the count even when the task ultimately fails the job.
    ``task.attempt_offset`` is the
    number of attempts already consumed elsewhere (a crashed worker's
    lost attempts, counted by the scheduler), so a rescheduled task
    keeps one cumulative attempt budget.
    """
    task_id = task.key
    max_attempts = job.conf.get_positive_int(Keys.TASK_MAX_ATTEMPTS)
    last_error: Exception | None = None
    for attempt in range(task.attempt_offset, max_attempts):
        if attempts_out is not None:
            attempts_out[task_id] = attempt + 1
        instruments = TaskInstruments(Ledger())
        counters = Counters()
        runner: MapTaskRunner | ReduceTaskRunner
        if task.kind == "map":
            if disk_factory is not None:
                disk = disk_factory(task_id)
            else:
                disk = LocalDisk(f"{task_id}.disk")
            collector = build_collector(
                job, task_id, disk, instruments, counters, shared_state
            )
            runner = MapTaskRunner(
                job, splits[task.payload], task_id, disk, collector,
                instruments, counters, host,
            )
        else:
            runner = ReduceTaskRunner(
                job, task.payload, fetch_results or [], task_id,
                instruments, counters, host,
            )
        try:
            with task_scope(task_id, attempt + 1):
                worker_fault(task_id, attempt + 1)
                return task_id, attempt + 1, runner.run(), None
        except TRANSIENT_TASK_ERRORS as exc:
            last_error = exc
    raise JobFailedError(
        f"task {task_id} failed {max_attempts} attempts; last error: {last_error}"
    ) from last_error


def note_attempts(attempts_seen: dict[str, int], task_id: str, attempts: int) -> None:
    """Raise *task_id*'s cumulative attempt count to *attempts* (counts
    arrive out of order: a crashed attempt's from the scheduler, the
    task's own from its worker)."""
    if attempts > attempts_seen.get(task_id, 0):
        attempts_seen[task_id] = attempts


def lose_attempt(task: Task, max_attempts: int) -> Task | tuple:
    """The attempt of *task* that was running died with its worker:
    the task to requeue with the lost attempt counted, or — once the
    shared ``repro.task.max.attempts`` budget is gone — the quarantine
    outcome that pulls a poison task from scheduling."""
    crashes = task.crashes + 1
    consumed = task.attempt_offset + 1  # the attempt that died
    if consumed < max_attempts:
        return dataclasses.replace(task, attempt_offset=consumed, crashes=crashes)
    error = JobFailedError(
        f"task {task.key} quarantined after {crashes} worker "
        f"crash(es), {consumed} attempt(s) consumed: every worker "
        "that ran it died, so it is presumed poison"
    )
    return task.key, consumed, None, error


def recovery_counters(job: JobSpec, task_attempts: dict[str, int]) -> Counters:
    """Fault-tolerance accounting derived from attempt counts: every
    attempt beyond a task's first is a re-execution (only *this* job's
    tasks count — runners may share the attempts dict across jobs)."""
    events = Counters()
    prefix = f"{job.name}."
    reexecutions = sum(
        max(0, attempts - 1)
        for task_id, attempts in task_attempts.items()
        if task_id.startswith(prefix)
    )
    events.incr(Counter.TASK_REEXECUTIONS, reexecutions)
    return events


def apply_node_combine(
    job: JobSpec, map_results: list[MapTaskResult], host: str
):
    """Run the in-node combine stage, when configured and applicable.

    Groups the finished *map_results* by the host they ran on (falling
    back to the executor's own *host* for results without one) and folds
    each group into one synthetic per-node output
    (:mod:`repro.shuffle.nodecombine`).  Returns ``(fetch_results,
    outcome)``: the results reducers should fetch from, and the stage's
    accounting (``None`` when the stage did not run, in which case
    *fetch_results* is *map_results* itself).  The originals are left
    untouched — they stay in the job result and its ledger sums.

    The stage is skipped when it cannot apply: no combiner declared, or
    nothing to fold.  ``repro.shuffle.node.combine`` itself is gated at
    submit by the static analyzer (fold-like combiners only).
    """
    if not job.conf.get_bool(Keys.NODE_COMBINE):
        return map_results, None
    if job.combiner_factory is None or not map_results:
        return map_results, None
    from ..shuffle.nodecombine import NodeCombiner

    combiner = NodeCombiner(job)
    groups: dict[str, list[MapTaskResult]] = {}
    for result in map_results:
        groups.setdefault(result.host or host, []).append(result)
    fetch_results = [
        combiner.combine_host(result_host, group)
        for result_host, group in groups.items()
    ]
    return fetch_results, combiner.outcome(fetch_results)


def assemble_job_result(
    job: JobSpec,
    map_results: list[MapTaskResult],
    reduce_results: list[ReduceTaskResult],
    shuffle_hosts: list | None = None,
    task_attempts: dict[str, int] | None = None,
    events: Counters | None = None,
    node_combine=None,
) -> JobResult:
    """Merge per-task accounting into a job result, in task order, so
    every backend produces an identical ledger/counter aggregation.

    *task_attempts* (the executor's per-task attempt counts) yields the
    ``TASK_REEXECUTIONS`` counter; *events* carries executor-level
    counters no single task owns (worker crashes, timeouts,
    quarantines).  Neither perturbs the ledger, so fault-free runs stay
    bit-identical across backends.  *node_combine* is the in-node
    combine stage's :class:`~repro.shuffle.nodecombine.
    NodeCombineOutcome`, whose ledger and counters fold into the job
    totals after the per-task sums.
    """
    ledger = Ledger.summed(
        [r.ledger for r in map_results] + [r.ledger for r in reduce_results]
    )
    counters = Counters.summed(
        [r.counters for r in map_results] + [r.counters for r in reduce_results]
    )
    attempts = dict(task_attempts) if task_attempts else {}
    counters.merge(recovery_counters(job, attempts))
    if events is not None:
        counters.merge(events)
    if node_combine is not None:
        ledger.merge(node_combine.ledger)
        counters.merge(node_combine.counters)
    return JobResult(
        job_name=job.name,
        map_results=map_results,
        reduce_results=reduce_results,
        ledger=ledger,
        counters=counters,
        shuffle_hosts=shuffle_hosts or [],
        task_attempts=attempts,
        job_id=job.job_id(),
    )


def materialize_map_result(result: MapTaskResult) -> None:
    """Copy a map task's final output file from its temp dir into an
    in-memory disk so the job result outlives the temp tree, keeping
    the worker's I/O stats (the copy itself is not task work).  Outputs
    already in memory — in-process tasks — are left as they are."""
    file_disk = result.disk
    if isinstance(file_disk, LocalDisk):
        return
    stats = file_disk.stats.snapshot()
    local = LocalDisk(f"{result.task_id}.disk")
    path = result.output_index.path
    with file_disk.open(path) as reader:
        data = reader.read()
    with local.create(path) as writer:
        writer.write(data)
    local.stats = stats
    result.disk = local


def fault_plan_for(job: JobSpec) -> FaultPlan:
    """The job's unified fault plan (``repro.faults.*`` conf keys /
    ``REPRO_FAULT`` env); empty and disabled in normal runs."""
    return FaultPlan.from_conf(job.conf)


def start_shuffle_server(job: JobSpec, host: str):
    """Start this node's shuffle server when the job asks for the real
    network shuffle (``repro.shuffle.mode = net``); returns ``None`` in
    the default ``mem`` mode.  The caller owns the server's lifetime and
    must ``stop()`` it (the job plan and the worker daemon do so in a
    ``finally``)."""
    if job.conf.get_str(Keys.SHUFFLE_MODE) != "net":
        return None
    from ..shuffle.server import ShuffleServer

    return ShuffleServer(host).start()


def job_splits(job: JobSpec) -> list[FileSplit]:
    splits = job.input_format.splits()
    if not splits:
        raise ValueError(f"job {job.name!r} has no input splits")
    return splits


class Executor(ABC):
    """The job plan over an abstract task transport.

    :meth:`run` is concrete and final in spirit: every backend executes
    the same plan and differs only in the three transport methods.

    Attributes
    ----------
    workers:
        Resolved worker count (``repro.exec.workers``; 0 = one per CPU).
        The serial backend ignores it.
    task_attempts:
        ``task_id -> attempts consumed``, mirrored by
        :class:`~repro.engine.runner.LocalJobRunner` for compatibility.
    job, splits, events:
        The running job, its input splits, and the executor-level fault
        counters no single task owns (worker crashes, timeouts,
        quarantines) — set by :meth:`run` before :meth:`open`, for the
        transport to read.
    """

    name: str = "?"

    def __init__(self, workers: int = 0, host: str = "localhost") -> None:
        self.workers = resolve_workers(workers)
        self.host = host
        self.task_attempts: dict[str, int] = {}
        self.job: JobSpec
        self.splits: list[FileSplit] = []
        self.events = Counters()
        self._server: Any = None

    # ------------------------------------------------------------------
    # the transport: where task attempts run
    # ------------------------------------------------------------------
    def open(self, job: JobSpec) -> None:
        """Bring up whatever runs this job's tasks (per-node state, daemons)."""

    @abstractmethod
    def run_tasks(
        self, tasks: list[Task], fetch_results: list[MapTaskResult] | None
    ) -> list[tuple]:
        """Run every task of one phase to an outcome and return the
        ``(task_id, attempts, result, error)`` outcomes in the order of
        *tasks*.  *fetch_results* is what reduce tasks fetch from
        (``None`` in the map phase); a transport may replace an entry
        in place when it re-executes a map whose host died.  A transport
        whose attempts run in this process may instead let the first
        failing task's (in task order) exception propagate as it is."""

    def close(self) -> list:
        """Tear the transport down — also after a failure, also after a
        half-finished :meth:`open` — and return the shuffle-server
        snapshots of the hosts it ran (net shuffle; else empty)."""
        return []

    # ------------------------------------------------------------------
    # the plan
    # ------------------------------------------------------------------
    def run(self, job: JobSpec) -> JobResult:
        """Execute *job* to completion and return its merged result."""
        check_choices(job)
        self.job = job
        self.events = Counters()
        shuffle_hosts: list = []
        node_combine = None
        with installed(fault_plan_for(job)):
            self.splits = job_splits(job)
            try:
                self.open(job)
                map_tasks = [
                    Task(key=map_task_id(job, index), kind="map", payload=index)
                    for index in range(len(self.splits))
                ]
                map_results = self._collect(self.run_tasks(map_tasks, None))
                self._publish(map_results)
                fetch_results, node_combine = apply_node_combine(
                    job, map_results, self.host
                )
                if node_combine is not None:
                    self._publish(fetch_results)
                # Barrier: every reduce needs every map's output.  When
                # the fold did not run *fetch_results* is *map_results*,
                # so an entry the transport repairs in place is the one
                # the job result reports.
                reduce_tasks = [
                    Task(key=reduce_task_id(job, partition), kind="reduce", payload=partition)
                    for partition in range(job.num_reducers)
                ]
                reduce_results = self._collect(
                    self.run_tasks(reduce_tasks, fetch_results)
                )
                for result in map_results:
                    materialize_map_result(result)
            finally:
                if self._server is not None:
                    # Stop serving before the transport's temp tree (and
                    # the spill files in it) vanishes.
                    self._server.stop()
                    shuffle_hosts.append(self._server.snapshot())
                    self._server = None
                shuffle_hosts.extend(self.close())
        return assemble_job_result(
            job,
            map_results,
            reduce_results,
            shuffle_hosts=shuffle_hosts,
            task_attempts=self.task_attempts,
            events=self.events,
            node_combine=node_combine,
        )

    def _publish(self, results: list[MapTaskResult]) -> None:
        """Net shuffle: register the outputs no worker daemon has
        published with the driver's own shuffle server (started on first
        use; a cluster job whose daemons serve everything never starts
        it), so reducers can fetch them over TCP."""
        held = [result for result in results if result.serve_address is None]
        if held and self._server is None:
            self._server = start_shuffle_server(self.job, self.host)
        if self._server is not None:
            for result in held:
                self._server.register(result.task_id, result.output_index, result.disk)
                result.serve_address = self._server.address

    def _collect(self, outcomes: list[tuple]) -> list:
        """Record every attempt count, then fail on the first failed task
        (in task order) — the same failure order on every backend.  Whatever
        a transport reports is a task-attributed error: framework errors
        re-raise with their causal type, anything opaque becomes a
        :class:`~repro.errors.JobFailedError` naming the task and its
        attempt count."""
        for task_id, attempts, _result, _error in outcomes:
            note_attempts(self.task_attempts, task_id, attempts)
        results = []
        for task_id, attempts, result, error in outcomes:
            if error is not None:
                if isinstance(error, ReproError):
                    raise error
                raise JobFailedError(
                    f"task {task_id} failed in a worker process after "
                    f"{max(attempts, 1)} attempt(s): {error!r}"
                ) from error
            results.append(result)
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers}, host={self.host!r})"
