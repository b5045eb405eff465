"""Warm pre-forked worker pools, leased one submission at a time.

Process startup is a per-job constant the paper's cost model charges on
every run; a job service paying it per *submission* would hand the
savings straight back.  The :class:`WarmPoolManager` keeps a fixed set
of single-worker :class:`~repro.exec.pool.CrashTolerantPool` instances
alive across jobs: a submission *leases* a slot, runs its whole job
inside that worker (see :func:`job_entry`), and returns the
slot — the fork happened once, at service start.

Fault tolerance rides on the pool's existing machinery: a worker that
dies mid-job is detected by its process sentinel, the pool forks a
replacement, and a submission that keeps killing workers is
quarantined with a :class:`~repro.errors.JobFailedError` after
``max_attempts`` (the same path the process backend's poison tasks
take).  ``recycle_jobs`` bounds drift by re-forking a slot's worker
after N jobs.

Cold mode (``warm=False``) forks a fresh pool per lease and tears it
down on release — it exists so the load benchmark can measure exactly
what warm reuse buys; :attr:`WarmPoolManager.total_forks` is the
observable (a warm run forks ~pool-size times, a cold run once per
submission).
"""

from __future__ import annotations

import functools
import multiprocessing
import threading
from dataclasses import dataclass, field

from ..errors import ExecBackendError, ServeError
from ..exec.base import Task
from ..exec.pool import CrashTolerantPool
from ..exec.workers import worker_main
from .request import JobOutcome, JobRequest, execute_request


def job_entry(task: Task, _fetch_results: None = None) -> tuple:
    """The ``"job"`` handler of a serve worker.

    Unlike the process backend's :func:`~repro.exec.workers.task_entry`
    — whose tasks resolve a fork-inherited job context — serve workers
    are forked *before* the submissions they will run exist, so each
    task's payload carries a self-contained :class:`~repro.serve.
    request.JobRequest` dict and the job is rebuilt in-child from the
    app/pipeline registries.  Errors become outcomes in the shared
    :func:`~repro.exec.workers.run_entry`.
    """
    request_dict, cache_dir = task.payload
    outcome = execute_request(JobRequest.from_dict(request_dict), cache_dir)
    return task.key, task.attempt_offset + 1, outcome, None


@dataclass
class _Slot:
    """One leasable worker slot."""

    pool: CrashTolerantPool
    jobs_run: int = 0


@dataclass
class WarmPoolManager:
    """A bounded set of worker slots with exclusive lease checkout."""

    size: int = 4
    warm: bool = True
    max_attempts: int = 2
    recycle_jobs: int = 0  # re-fork a slot after N jobs (0 = never)
    cache_dir: str = ""  # shared disk stage cache for pipeline stages
    leases: int = field(default=0, init=False)
    _retired_forks: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ServeError(f"pool size must be positive, got {self.size}")
        self._ctx = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._free_ready = threading.Condition(self._lock)
        self._free: list[_Slot] = []
        self._busy: list[_Slot] = []
        self._outstanding = 0  # leases handed out (cold mode has no slot list)
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pre-fork every slot (warm mode; cold mode forks per lease)."""
        if not self.warm:
            return
        with self._lock:
            while len(self._free) + len(self._busy) < self.size:
                self._free.append(self._make_slot())

    def _make_slot(self) -> _Slot:
        return _Slot(
            pool=CrashTolerantPool(
                ctx=self._ctx,
                workers=1,
                worker_target=functools.partial(worker_main, handler=job_entry),
                max_attempts=self.max_attempts,
            )
        )

    # ------------------------------------------------------------------
    def run(self, request: JobRequest, key: str, timeout: float | None = None) -> JobOutcome:
        """Lease a slot, run *request* in its worker, release the slot.

        Raises the worker-reported error (framework errors keep their
        causal type; a crash-quarantined submission surfaces the pool's
        :class:`~repro.errors.JobFailedError`).
        """
        slot = self._acquire(timeout)
        try:
            task = Task(
                key=key, kind="job", payload=(request.as_dict(), self.cache_dir)
            )
            _task_id, _attempts, outcome, error = slot.pool.run_one(task)
            if error is not None:
                raise error
            if outcome is None:
                raise ServeError(f"submission {key} returned no outcome")
            slot.jobs_run += 1
            return outcome
        finally:
            self._release(slot)

    def _acquire(self, timeout: float | None = None) -> _Slot:
        with self._free_ready:
            while not self._closed and self.warm and not self._free:
                if not self._free_ready.wait(timeout=timeout):
                    raise ServeError("timed out waiting for a worker lease")
            if self._closed:
                raise ServeError("pool manager is closed")
            self.leases += 1
            if not self.warm:
                if self._outstanding >= self.size:
                    # Cold mode still bounds concurrency to `size`: the
                    # service's runner-thread count matches, so this is
                    # belt and braces, not a wait loop.
                    raise ServeError("no cold-pool capacity free")
                self._outstanding += 1
                slot = self._make_slot()
                self._busy.append(slot)
                return slot
            slot = self._free.pop()
            self._busy.append(slot)
            self._outstanding += 1
            return slot

    def _release(self, slot: _Slot) -> None:
        with self._free_ready:
            if slot in self._busy:
                self._busy.remove(slot)
            self._outstanding -= 1
            if self._closed or not self.warm:
                self._retire(slot)
            elif self.recycle_jobs > 0 and slot.jobs_run >= self.recycle_jobs:
                self._retire(slot)
                self._free.append(self._make_slot())
            else:
                self._free.append(slot)
            self._free_ready.notify()

    def _retire(self, slot: _Slot) -> None:
        self._retired_forks += slot.pool.forks
        try:
            slot.pool.close()
        except (OSError, ExecBackendError):
            pass  # a torn-down worker is the goal; nothing to salvage

    # ------------------------------------------------------------------
    @property
    def total_forks(self) -> int:
        """Worker processes forked over the manager's lifetime — the
        warm-vs-cold observable (crash replacements included)."""
        with self._lock:
            live = sum(s.pool.forks for s in self._free + self._busy)
            return self._retired_forks + live

    def close(self) -> None:
        """Tear every slot down; safe to call twice.  Busy slots are
        closed by their releasing thread (``_release`` sees ``_closed``)."""
        with self._free_ready:
            if self._closed:
                return
            self._closed = True
            free, self._free = self._free, []
            self._free_ready.notify_all()
        for slot in free:
            self._retire(slot)
