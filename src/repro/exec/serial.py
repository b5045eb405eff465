"""The serial backend: every task on the calling thread, in order.

This is the engine's original execution loop behind the
:class:`~repro.exec.base.Executor` transport interface.  It is the
reference the cluster backend is tested against — results must be
bit-for-bit identical to what :class:`~repro.engine.runner.LocalJobRunner`
produced before backends existed.  The whole run is one node: every
map task shares one *shared_state* dict (the frequent-key set and the
partition memo).
"""

from __future__ import annotations

from ..engine.job import JobSpec
from .base import Executor, run_with_retries


class SerialExecutor(Executor):
    """Runs maps then reduces sequentially on one simulated node."""

    name = "serial"

    def open(self, job: JobSpec) -> None:
        self._shared_state: dict = {}

    def run_tasks(self, tasks, fetch_results):
        return [
            run_with_retries(
                self.job,
                task,
                self.splits,
                fetch_results,
                self.host,
                shared_state=self._shared_state,
                attempts_out=self.task_attempts,
            )
            for task in tasks
        ]
