"""Locality-aware task placement: the one locality module.

Both cluster engines place map tasks the same way.  The simulator's
:func:`repro.cluster.scheduler.schedule_wave` (a slot frees) and the
runtime's master (a worker daemon idles) each ask :func:`choose_task`
for the first pending task whose input lives on that host, else the
oldest one; the block locations come from the job input staged into a
DFS over the cluster's host labels (:func:`stage_locality`).

Staging: the job's in-memory :class:`~repro.engine.inputformat.
TextInput` bytes are written once into an in-process
:class:`~repro.dfs.client.DfsCluster` whose datanodes are the cluster's
worker host labels and whose block size equals the job's split size, so
every engine split maps onto exactly one replicated block.  The engine's
split *boundaries* are never touched — byte-identity with the serial
backend depends on that — the DFS contributes only the per-split replica
hosts the scheduler prefers and the per-worker local-read path the
daemons use (:meth:`LocalityMap` carries both).  Non-text inputs run
unstaged: no hints, every dispatch is remote, nothing else changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..config import Keys
from ..dfs.client import DfsCluster
from ..engine.inputformat import TextInput
from ..engine.job import JobSpec


@dataclass
class LocalityMap:
    """Where each map task's input bytes physically live."""

    dfs: DfsCluster | None = None
    path: str = ""
    #: map index -> replica hosts, descending byte overlap.
    hints: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def preferred_hosts(self, index: int) -> tuple[str, ...]:
        return self.hints.get(index, ())

    def data_local(self, index: int, host: str) -> bool:
        return host in self.hints.get(index, ())


def stage_locality(job: JobSpec, hosts: Sequence[str]) -> LocalityMap:
    """Stage the job's input into a DFS over *hosts* and derive per-split
    locality hints.  Returns an empty map for non-text inputs."""
    input_format = job.input_format
    if not isinstance(input_format, TextInput) or not input_format.data:
        return LocalityMap()
    dfs = DfsCluster(
        list(hosts),
        block_size=input_format.split_size,
        replication=job.conf.get_positive_int(Keys.DFS_REPLICATION),
    )
    path = input_format.path
    dfs.client().write_file(path, input_format.data)
    hints = {
        index: dfs.namenode.hosts_for_range(path, split.offset, split.length)
        for index, split in enumerate(input_format.splits())
    }
    return LocalityMap(dfs=dfs, path=path, hints=hints)


def choose_task(pending: Sequence, host: str) -> int:
    """The slot-assignment rule: the index of the first pending task
    preferring *host* (data-local), else 0 (the oldest pending task).
    *pending* items expose ``preferred_hosts``."""
    for index, task in enumerate(pending):
        if host in task.preferred_hosts:
            return index
    return 0
