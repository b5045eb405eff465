"""A crash-tolerant fork worker pool for the process backend.

``multiprocessing.Pool`` is the wrong substrate for an executor that
promises Hadoop's fault model: when a worker dies abruptly (OOM kill,
segfault, injected ``worker.kill``), ``Pool.map`` either deadlocks
waiting for a result that will never arrive or surfaces a bare
``BrokenProcessPool``-style error with no idea *which task* was lost.
This pool is built for exactly that case:

* each worker owns a private duplex :class:`~multiprocessing.Pipe`;
  the parent dispatches one task at a time per worker, so when a worker
  dies the parent knows precisely which task attempt died with it;
* the scheduling loop waits on result pipes *and* process sentinels
  (:func:`multiprocessing.connection.wait`), so an abrupt death is an
  event, not a timeout;
* a lost task is rescheduled on the survivors with its cumulative
  attempt count carried forward (``attempt_offset``), sharing one
  ``repro.task.max.attempts`` budget between in-worker failures and
  worker deaths — and a *poison* task that keeps killing workers is
  quarantined with a task-attributed :class:`~repro.errors.
  JobFailedError` once that budget is gone, instead of taking the pool
  down with it;
* dead workers are replaced immediately, keeping capacity constant;
* a configurable task timeout (``repro.task.timeout.seconds``) reaps
  workers stuck in a hung task (injected ``worker.hang``, or real
  runaway user code) by killing the worker, which then flows through
  the same lost-attempt path.

Workers are forked (see :mod:`repro.exec.process` for why) and run
:func:`repro.exec.workers.worker_main`; only task payloads and
outcomes cross the pipes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable

from ..engine.counters import Counter, Counters
from .base import Task, lose_attempt, note_attempts

#: How long one scheduler wait blocks before re-checking task timeouts.
_WAIT_SECONDS = 0.05


@dataclass
class _Worker:
    process: Any
    conn: Any
    current: Task | None = None
    started_at: float = 0.0
    reaped: bool = False  # already killed by the task timeout

    @property
    def busy(self) -> bool:
        return self.current is not None


@dataclass
class CrashTolerantPool:
    """Runs batches of :class:`~repro.exec.base.Task` s across forked workers,
    surviving worker death.  ``events`` accumulates the executor-level
    fault counters (crashes, timeouts, quarantines)."""

    ctx: Any  # a fork multiprocessing context
    workers: int
    worker_target: Callable[[Any], None]  # worker_main(conn), ctx_id bound
    max_attempts: int
    task_timeout: float = 0.0  # seconds; 0 disables reaping
    events: Counters = field(default_factory=Counters)
    #: task_id -> attempts consumed, updated on crashes too, so callers
    #: see the true count even when the job ultimately fails.
    attempts_seen: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._pool: list[_Worker] = [self._spawn() for _ in range(self.workers)]

    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        process = self.ctx.Process(
            target=self.worker_target, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()  # the child's end lives in the child now
        return _Worker(process=process, conn=parent_conn)

    # ------------------------------------------------------------------
    def run(self, tasks: list[Task], fetch_results: list | None = None) -> list[tuple]:
        """Run every task to an outcome; returns outcomes in the order
        of *tasks* (task order), each a ``(task_id, attempts, result,
        error)`` tuple as produced by the worker's handler.
        *fetch_results* ships with every task (what reduces fetch from;
        ``None`` otherwise)."""
        pending: list[Task] = list(tasks)
        outcomes: dict[str, tuple] = {}
        while pending or any(w.busy for w in self._pool):
            self._dispatch(pending, fetch_results)
            self._reap_hung()
            ready = wait(
                [w.conn for w in self._pool if w.busy]
                + [w.process.sentinel for w in self._pool if w.busy],
                timeout=_WAIT_SECONDS,
            )
            for worker in list(self._pool):
                if not worker.busy:
                    continue
                if worker.conn in ready:
                    self._finish(worker, pending, outcomes)
                elif worker.process.sentinel in ready:
                    self._lost(worker, worker.current, pending, outcomes)
        return [outcomes[task.key] for task in tasks]

    def close(self) -> None:
        """Shut the workers down (politely, then firmly).  Idempotent:
        a second close is a no-op, so the executor's teardown and error
        paths can both call it."""
        for worker in self._pool:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass  # already dead; the join below cleans up
        for worker in self._pool:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            worker.conn.close()
        self._pool = []

    def __enter__(self) -> "CrashTolerantPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _dispatch(self, pending: list[Task], fetch_results: list | None) -> None:
        # Snapshot: _replace mutates the pool; replacements spawned this
        # round get work on the next scheduling iteration.
        for worker in list(self._pool):
            if not pending:
                return
            if worker.busy:
                continue
            task = pending.pop(0)
            try:
                worker.conn.send((task, fetch_results))
            except (OSError, ValueError, BrokenPipeError):
                # The worker died while idle; replace it and put the
                # task back — nothing was lost, so no attempt is burned.
                pending.insert(0, task)
                self._replace(worker)
                continue
            worker.current = task
            worker.started_at = time.monotonic()

    def _finish(
        self, worker: _Worker, pending: list[Task], outcomes: dict[str, tuple]
    ) -> None:
        task = worker.current
        assert task is not None
        try:
            outcome = worker.conn.recv()
        except (EOFError, OSError):
            # The pipe died with the worker between wait() and recv();
            # treat it exactly like a sentinel-detected crash.
            self._lost(worker, task, pending, outcomes)
            return
        worker.current = None
        note_attempts(self.attempts_seen, outcome[0], outcome[1])
        outcomes[task.key] = outcome

    def _lost(
        self,
        worker: _Worker,
        task: Task | None,
        pending: list[Task],
        outcomes: dict[str, tuple],
    ) -> None:
        """A worker died while running *task*: account the lost attempt,
        reschedule on survivors or quarantine, replace the worker."""
        assert task is not None
        self.events.incr(Counter.WORKER_CRASHES)
        note_attempts(self.attempts_seen, task.key, task.attempt_offset + 1)
        self._replace(worker)
        lost = lose_attempt(task, self.max_attempts)
        if isinstance(lost, Task):
            pending.insert(0, lost)
        else:
            self.events.incr(Counter.TASKS_QUARANTINED)
            outcomes[task.key] = lost

    def _replace(self, worker: _Worker) -> None:
        worker.current = None
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=1.0)
        self._pool.remove(worker)
        self._pool.append(self._spawn())

    def _reap_hung(self) -> None:
        """Kill workers whose current task exceeded the task timeout;
        the death then flows through the normal lost-attempt path."""
        if self.task_timeout <= 0:
            return
        now = time.monotonic()
        for worker in self._pool:
            if (
                worker.busy
                and not worker.reaped
                and now - worker.started_at > self.task_timeout
            ):
                self.events.incr(Counter.TASK_TIMEOUTS)
                worker.reaped = True
                worker.process.kill()
