"""The process backend: task attempts in real OS worker processes.

Map tasks fan out over a crash-tolerant fork pool
(:mod:`repro.exec.pool`), spill to real temp disk through
:class:`~repro.exec.diskio.FileDisk`, and ship their results (ledger,
counters, spill index, disk handle) back by pickle; reduce tasks then
fan out over the same pool, each reading its shuffle partition straight
from the files the map workers wrote.  This is the backend that
actually scales CPU-bound map work across cores — and the one that has
to survive workers dying under it: a worker killed mid-task (OOM,
segfault, injected ``worker.kill``) costs one task attempt, not the
job; the lost attempt is rescheduled on the survivors under the shared
``repro.task.max.attempts`` budget, and a poison task that keeps
killing workers is quarantined with a task-attributed
:class:`~repro.errors.JobFailedError`.

The pool uses the ``fork`` start method deliberately: application specs
are built from closures and lambdas that cannot pickle, so the job is
staged in :mod:`repro.exec.workers`' context registry and inherited by
the forked children instead of being sent to them (each worker is
pinned to its executor's context id, so concurrent executors in one
parent never cross wires).  The job's fault plan (if any) is installed
by the job plan *before* :meth:`ProcessExecutor.open` forks, for the
same reason — workers inherit the armed injector.

The shuffle server (net mode) is the driver's own, in the parent: map
workers register their :class:`~repro.exec.diskio.FileDisk` outputs
with it over TCP, reduce workers fetch segments from it over TCP.  The
node-combine stage also runs in the parent, reading the workers'
temp-disk outputs.  After the reduces finish the plan *materializes*
every map output — copied from its temp directory into an in-memory
:class:`~repro.io.blockdisk.LocalDisk` (preserving the worker's disk
stats) — and :meth:`~ProcessExecutor.close` removes the temp tree, so
the returned :class:`~repro.engine.runner.JobResult` is as
self-contained as a serial run's.
"""

from __future__ import annotations

import functools
import shutil
import tempfile

from ..config import Keys
from ..engine.job import JobSpec
from . import workers
from .base import Executor
from .pool import CrashTolerantPool


class ProcessExecutor(Executor):
    """Runs task attempts in forked worker processes."""

    name = "process"
    _pool: CrashTolerantPool | None = None
    _tmp_root: str | None = None
    _ctx_id: int | None = None

    def open(self, job: JobSpec) -> None:
        ctx = workers.fork_context(self.name)
        server = self.shuffle_server()
        self._tmp_root = tempfile.mkdtemp(prefix=f"repro-exec-{job.name}-")
        self._ctx_id = workers.push_context(
            job, self._tmp_root, self.host,
            shuffle_address=server.address if server is not None else None,
        )
        # Workers are pinned to this executor's ctx_id: replacements
        # forked while a concurrent executor is live in the same parent
        # still resolve *this* job's context from the registry.
        self._pool = CrashTolerantPool(
            ctx=ctx,
            workers=self.workers,
            worker_target=functools.partial(workers.worker_main, ctx_id=self._ctx_id),
            max_attempts=job.conf.get_positive_int(Keys.TASK_MAX_ATTEMPTS),
            task_timeout=job.conf.get_float(Keys.TASK_TIMEOUT),
            events=self.events,
            attempts_seen=self.task_attempts,
        )

    def run_tasks(self, tasks, fetch_results):
        assert self._pool is not None
        return self._pool.run(tasks, fetch_results)

    def close(self) -> list:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._ctx_id is not None:
            workers.pop_context(self._ctx_id)
            self._ctx_id = None
        if self._tmp_root is not None:
            shutil.rmtree(self._tmp_root, ignore_errors=True)
            self._tmp_root = None
        return []
