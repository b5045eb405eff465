"""Locality-aware slot scheduling.

Hadoop's JobTracker model: each node exposes a fixed number of map (or
reduce) slots; when a slot frees, the scheduler assigns it a pending
task, preferring one whose input lives on that node (data-local), then
any remaining task — :func:`repro.cluster.placement.choose_task`, the
rule the runtime's master dispatches by too.  Task durations are
supplied by a callback so the same scheduler serves map waves (locality
matters, durations vary per node) and reduce waves (no locality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import SchedulerError
from .placement import choose_task
from .simclock import EventQueue
from .specs import ClusterSpec


@dataclass(frozen=True)
class TaskRequest:
    """One schedulable task."""

    task_id: str
    preferred_hosts: tuple[str, ...] = ()


@dataclass(frozen=True)
class Placement:
    """Where and when a task ran."""

    task_id: str
    host: str
    start: float
    end: float
    data_local: bool


DurationFn = Callable[[TaskRequest, str], float]
"""(task, host) -> duration in seconds on that host."""


def schedule_wave(
    cluster: ClusterSpec,
    tasks: Sequence[TaskRequest],
    duration_fn: DurationFn,
    slots_attr: str = "map_slots",
    start_time: float = 0.0,
) -> list[Placement]:
    """Run one task wave (all tasks of one phase) to completion.

    Returns placements in completion order.  Deterministic: ties in
    slot-free times break by host name, and task selection prefers
    data-local pending tasks in submission order.
    """
    if not tasks:
        return []
    slot_count = sum(getattr(node, slots_attr) for node in cluster.nodes)
    if slot_count <= 0:
        raise SchedulerError(f"cluster {cluster.name!r} has no {slots_attr}")

    pending: list[TaskRequest] = list(tasks)
    placements: list[Placement] = []
    queue = EventQueue()
    queue.now = start_time

    # Seed: every slot becomes available at start_time.
    free_slots: list[str] = []
    for node in sorted(cluster.nodes, key=lambda n: n.host):
        free_slots.extend([node.host] * getattr(node, slots_attr))

    def assign(host: str, now: float) -> None:
        if not pending:
            return
        task = pending.pop(choose_task(pending, host))
        duration = duration_fn(task, host)
        if duration < 0:
            raise SchedulerError(f"negative duration for {task.task_id} on {host}")
        data_local = host in task.preferred_hosts
        placement = Placement(task.task_id, host, now, now + duration, data_local)
        placements.append(placement)
        queue.schedule(now + duration, host)

    for host in free_slots:
        assign(host, start_time)

    while queue:
        now, host = queue.pop()
        assign(host, now)

    if pending:
        raise SchedulerError(f"{len(pending)} tasks were never scheduled")
    return placements
