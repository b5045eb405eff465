"""The thread backend: map/reduce tasks over a shared thread pool.

Pure-Python task bodies are GIL-bound, so this backend mostly buys
overlap of real I/O and a cheap way to exercise the engine's
thread-safety contract; the cluster backend is the one that scales CPU
work.  Tasks get *fresh* per-task shared state (no cross-task
frequent-key sharing — concurrent tasks have no well-defined "first
task profiles" order), and results are collected in task order so the
merged accounting matches the serial backend exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..engine.job import JobSpec
from .base import Executor, run_with_retries


class ThreadExecutor(Executor):
    """Runs task attempts on a ``ThreadPoolExecutor``."""

    name = "thread"
    _pool: ThreadPoolExecutor | None = None

    def open(self, job: JobSpec) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=f"{job.name}.exec"
        )

    def run_tasks(self, tasks, fetch_results):
        assert self._pool is not None
        futures = [
            self._pool.submit(
                run_with_retries,
                self.job,
                task,
                self.splits,
                fetch_results,
                self.host,
                attempts_out=self.task_attempts,
            )
            for task in tasks
        ]
        # Collect in task order; the first failing task (in task order)
        # fails the job, matching the serial backend.
        return [future.result() for future in futures]

    def close(self) -> list:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        return []
