"""Worker-process entry points shared by every out-of-process transport.

The job is handed to workers through a context registry populated
*before* the pool is created under the ``fork`` start method: forked
children inherit the parent's memory, so :class:`~repro.engine.job.
JobSpec` objects with unpicklable pieces (the apps build mappers from
lambdas and closures) never cross a pickle boundary.  Only task *results* are pickled back —
ledgers, counters, spill indexes, and a :class:`~repro.exec.diskio.
FileDisk` handle pointing at the spill files the worker left on real
disk for the parent and the reduce workers to read.

Handlers return ``(task_id, attempts, result, error)`` rather than
raising, so the parent can record attempt counts before propagating the
failure in task order.  One discipline serves the pool's worker loop
(:func:`worker_main`) and the cluster's worker daemon:
:func:`run_entry` turns every error into an outcome, and
:func:`send_outcome` degrades an outcome that will not pickle.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Callable

from ..engine.job import JobSpec
from ..errors import ExecBackendError, JobFailedError, ReproError
from ..faults.runtime import mark_worker_process
from .base import Task, run_with_retries
from .diskio import FileDisk


def fork_context(backend: str):
    """The ``fork`` multiprocessing context *backend* needs: jobs reach
    workers by inheritance (see :class:`WorkerContext`), never by pickle."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:
        raise ExecBackendError(
            f"the {backend} backend requires the 'fork' start method, "
            "which this platform does not provide"
        ) from exc


@dataclass
class WorkerContext:
    """Everything a worker needs, inherited across fork."""

    job: JobSpec
    tmp_root: str
    host: str
    #: The parent's shuffle server, when ``repro.shuffle.mode = net``:
    #: map workers register their finished output with it over TCP and
    #: reducers fetch from it.
    shuffle_address: tuple[str, int] | None = None
    #: The cluster backend's staged input DFS: worker daemons read their
    #: job input through it (preferring the local replica) instead of
    #: the parent's in-memory bytes.  ``None`` for the process backend.
    dfs: object | None = None


# Contexts are registered by id, not held in a single slot: concurrent
# process executors in one parent each push their own entry, and a
# worker forked at *any* moment — including a crash-replacement forked
# mid-way through another executor's run — still resolves its own
# executor's context by id.
_CTX_LOCK = threading.Lock()
_CONTEXTS: dict[int, WorkerContext] = {}
_NEXT_CTX_ID = itertools.count(1)


def push_context(
    job: JobSpec,
    tmp_root: str,
    host: str,
    shuffle_address: tuple[str, int] | None = None,
    dfs: object | None = None,
) -> int:
    ctx = WorkerContext(
        job=job, tmp_root=tmp_root, host=host, shuffle_address=shuffle_address, dfs=dfs
    )
    with _CTX_LOCK:
        ctx_id = next(_NEXT_CTX_ID)
        _CONTEXTS[ctx_id] = ctx
    return ctx_id


def pop_context(ctx_id: int) -> None:
    with _CTX_LOCK:
        _CONTEXTS.pop(ctx_id, None)


def _context(ctx_id: int) -> WorkerContext:
    try:
        return _CONTEXTS[ctx_id]
    except KeyError:
        raise RuntimeError(
            f"worker context {ctx_id} not registered; process-backend entry "
            "points must run in a pool forked after push_context()"
        ) from None


def worker_context(ctx_id: int) -> WorkerContext:
    """Public accessor for daemons outside this module (the cluster
    runtime's ``workerd``) that inherit the registry across fork."""
    return _context(ctx_id)


def task_entry(task: Task, fetch_results: list | None, ctx_id: int = 0) -> tuple:
    """Run one map or reduce task of the context's job in this worker
    process.  ``task.attempt_offset`` is the number of attempts the task
    already consumed in workers that died running it (threaded through
    by the scheduler so the cumulative budget survives reschedules)."""
    ctx = _context(ctx_id)
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
            disk_factory=disk_factory,
            attempts_out=attempts_seen,
        )
    except JobFailedError as exc:
        return task.key, attempts_seen.get(task.key, 0), None, exc
    if task.kind == "map" and ctx.shuffle_address is not None:
        # Announce the finished output to this node's shuffle server
        # over the wire; the server reads the worker's spill files
        # itself when reducers ask for segments.
        from ..shuffle.fetcher import register_output

        result = outcome[2]
        register_output(
            ctx.shuffle_address,
            task.key,
            result.disk.root,
            result.disk.name,
            result.output_index,
        )
        result.serve_address = ctx.shuffle_address
    return outcome


def run_entry(
    handler: Callable[[Task, "list | None"], tuple],
    task: Task,
    fetch_results: list | None,
) -> tuple:
    """Run *task* through *handler*; every error becomes an outcome —
    a worker's only exits are orderly shutdown and abrupt death."""
    try:
        return handler(task, fetch_results)
    except ReproError as exc:
        # Framework errors the handler does not convert (shuffle
        # registration failures, config problems): ship them whole so
        # the parent re-raises the causal type.
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


def worker_main(conn, ctx_id: int) -> None:
    """The long-lived worker loop the crash-tolerant pool forks.

    Receives ``(task, fetch_results)`` messages over the pipe, runs
    :func:`task_entry` on each and sends back its ``(task_id, attempts,
    result, error)`` outcome.  A ``None`` message (or pipe EOF) shuts the
    worker down; abrupt death the parent observes via the process
    sentinel.  The worker is pinned to its executor's *ctx_id*, so
    replacement workers forked while other executors are live in the
    same parent never run against a different job's context.
    """
    handler = functools.partial(task_entry, ctx_id=ctx_id)
    mark_worker_process()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        send_outcome(conn.send, run_entry(handler, *message))
    conn.close()
