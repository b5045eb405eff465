"""The task entry point of the cluster backend's worker daemons.

The job is handed to the daemons through a context registry populated
*before* the master forks them under the ``fork`` start method: forked
children inherit the parent's memory, so :class:`~repro.engine.job.
JobSpec` objects with unpicklable pieces (the apps build mappers from
lambdas and closures) never cross a pickle boundary.  Only task
*results* are pickled back — ledgers, counters, spill indexes, and a
:class:`~repro.exec.diskio.FileDisk` handle pointing at the spill files
the daemon left on real disk for the parent and the reduce tasks to
read.

:func:`run_entry` returns ``(task_id, attempts, result, error)`` rather
than raising — every error becomes an outcome — so the master can
record attempt counts before the job plan propagates the failure in
task order; :func:`send_outcome` degrades an outcome that will not
pickle.  The daemon itself is :mod:`repro.cluster.runtime.workerd`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..engine.job import JobSpec
from ..errors import ExecBackendError, JobFailedError, ReproError
from .base import Task, run_with_retries
from .diskio import FileDisk

if TYPE_CHECKING:
    from ..shuffle.server import ShuffleServer


def fork_context():
    """The ``fork`` multiprocessing context the cluster backend needs:
    jobs reach its daemons by inheritance (see :class:`WorkerContext`),
    never by pickle."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:
        raise ExecBackendError(
            "the cluster backend requires the 'fork' start method, "
            "which this platform does not provide"
        ) from exc


@dataclass
class WorkerContext:
    """Everything a worker needs, inherited across fork."""

    job: JobSpec
    tmp_root: str
    host: str
    #: The staged input DFS: worker daemons read their job input
    #: through it (preferring the local replica) instead of the
    #: parent's in-memory bytes.
    dfs: object | None = None
    #: This daemon's own shuffle server, when ``repro.shuffle.mode =
    #: net`` (set by the daemon after fork): map tasks register their
    #: finished output with it in-process and reducers fetch from it.
    shuffle_server: "ShuffleServer | None" = None
    #: This daemon's per-node state (set to ``{}`` by the daemon after
    #: fork): a daemon is one node, so every map task it runs shares
    #: one frozen frequent-key set and one partition memo.
    shared_state: dict | None = None


# Contexts are registered by id, not held in a single slot: concurrent
# cluster executors in one parent each push their own entry, and a
# daemon forked at *any* moment — including a crash-replacement forked
# mid-way through another executor's run — still resolves its own
# executor's context by id.
_CTX_LOCK = threading.Lock()
_CONTEXTS: dict[int, WorkerContext] = {}
_NEXT_CTX_ID = itertools.count(1)


def push_context(job: JobSpec, tmp_root: str, host: str, dfs: object | None) -> int:
    ctx = WorkerContext(job=job, tmp_root=tmp_root, host=host, dfs=dfs)
    with _CTX_LOCK:
        ctx_id = next(_NEXT_CTX_ID)
        _CONTEXTS[ctx_id] = ctx
    return ctx_id


def pop_context(ctx_id: int) -> None:
    with _CTX_LOCK:
        _CONTEXTS.pop(ctx_id, None)


def worker_context(ctx_id: int) -> WorkerContext:
    """The context *ctx_id* names, as inherited across fork."""
    try:
        return _CONTEXTS[ctx_id]
    except KeyError:
        raise RuntimeError(
            f"worker context {ctx_id} not registered; worker daemons must "
            "be forked after push_context()"
        ) from None


def task_entry(task: Task, fetch_results: list | None, ctx_id: int) -> tuple:
    """Run one map or reduce task of the context's job in this worker
    process.  ``task.attempt_offset`` is the number of attempts the task
    already consumed in workers that died running it (threaded through
    by the master so the cumulative budget survives reschedules)."""
    ctx = worker_context(ctx_id)
    job = ctx.job
    attempt_seq = itertools.count(task.attempt_offset)

    def disk_factory(tid: str) -> FileDisk:
        # A fresh directory per attempt mirrors LocalDisk's
        # fresh-instance-per-attempt semantics.
        root = os.path.join(ctx.tmp_root, f"{tid}.attempt{next(attempt_seq)}")
        return FileDisk(root, f"{tid}.disk")

    # Splits are recomputed in the child (deterministic from the job's
    # input format) so only the index crosses the process boundary.
    splits = job.input_format.splits() if task.kind == "map" else []
    attempts_seen: dict[str, int] = {}
    try:
        outcome = run_with_retries(
            job,
            task,
            splits,
            fetch_results,
            ctx.host,
            shared_state=ctx.shared_state,
            disk_factory=disk_factory,
            attempts_out=attempts_seen,
        )
    except JobFailedError as exc:
        return task.key, attempts_seen.get(task.key, 0), None, exc
    server = ctx.shuffle_server
    if task.kind == "map" and server is not None:
        # Hand the finished output to this daemon's own shuffle server;
        # it reads the spill files when reducers ask for segments.
        result = outcome[2]
        server.register(task.key, result.output_index, result.disk)
        result.serve_address = server.address
    return outcome


def run_entry(task: Task, fetch_results: list | None, ctx_id: int) -> tuple:
    """Run *task* through :func:`task_entry`; every error becomes an
    outcome — a worker's only exits are orderly shutdown and abrupt
    death."""
    try:
        return task_entry(task, fetch_results, ctx_id)
    except ReproError as exc:
        # Framework errors task_entry does not convert (config
        # problems): ship them whole so the parent re-raises the causal
        # type.
        return (task.key, 0, None, exc)
    except BaseException as exc:  # noqa: BLE001 - worker must not die on user junk
        return (
            task.key,
            0,
            None,
            ExecBackendError(f"worker failed running {task.key}: {exc!r}"),
        )


def send_outcome(send: Callable[[tuple], None], outcome: tuple) -> None:
    """Ship *outcome* through *send*; one that will not pickle degrades
    to an error outcome (attempt counts are still useful to the parent)."""
    try:
        send(outcome)
    except Exception as exc:  # noqa: BLE001 - pickling can fail arbitrarily
        send(
            (
                outcome[0],
                outcome[1],
                None,
                ExecBackendError(f"result of {outcome[0]} is unpicklable: {exc!r}"),
            )
        )

