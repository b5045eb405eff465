"""Speculative execution (straggler mitigation).

MapReduce's classic answer to heterogeneous clusters: when a phase is
nearly done but some tasks lag far behind the completed tasks' typical
duration, the JobTracker launches backup attempts on free slots; a task
finishes when its *fastest* attempt finishes.  Dean & Ghemawat report
this cutting job times by a third on stragglers — our simulator
reproduces the mechanism deterministically so heterogeneity experiments
(e.g. one slow node in the cluster) behave realistically.

The implementation post-processes a :func:`~repro.cluster.scheduler.
schedule_wave` plan: placements are replayed in completion order, and
when the wave is at least ``quorum_fraction`` complete, any task whose
projected end exceeds ``slowdown_threshold`` x the median completed
duration gets a backup attempt on the earliest-free slot.  The task's
effective end becomes the earlier attempt's end.  (Task *work* is
deterministic in this simulator, so a backup helps exactly when it
lands on a faster node — the heterogeneous-cluster case.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .policy import SpeculationPolicy
from .scheduler import DurationFn, Placement, TaskRequest
from .specs import ClusterSpec

__all__ = [
    "SpeculationPolicy",
    "SpeculativeOutcome",
    "apply_speculation",
    "heterogeneous_cluster",
]


@dataclass(frozen=True)
class SpeculativeOutcome:
    """A wave's placements after speculation, with bookkeeping."""

    placements: list[Placement]
    backups_launched: int
    backups_won: int

    @property
    def wave_end(self) -> float:
        return max((p.end for p in self.placements), default=0.0)


def apply_speculation(
    cluster: ClusterSpec,
    placements: list[Placement],
    tasks_by_id: dict[str, TaskRequest],
    duration_fn: DurationFn,
    config: SpeculationPolicy = SpeculationPolicy(),
    slots_attr: str = "map_slots",
) -> SpeculativeOutcome:
    """Launch backup attempts for stragglers in a scheduled wave.

    Returns updated placements where each straggler's end time is the
    minimum over its attempts.  Deterministic: ties break by host name.
    """
    if not config.enabled or len(placements) < 2:
        return SpeculativeOutcome(list(placements), 0, 0)

    by_end = sorted(placements, key=lambda p: (p.end, p.task_id))
    quorum_index = config.quorum_index(len(by_end))
    completed = by_end[:quorum_index]
    median_duration = config.median_duration(p.end - p.start for p in completed)
    if median_duration <= 0:
        return SpeculativeOutcome(list(placements), 0, 0)
    quorum_time = completed[-1].end

    # Slots free once their original assignments end; the earliest-free
    # slot (but no earlier than the quorum time) hosts each backup.
    slot_free: list[tuple[float, str]] = []
    per_host_end: dict[str, list[float]] = {}
    for placement in placements:
        per_host_end.setdefault(placement.host, []).append(placement.end)
    for node in sorted(cluster.nodes, key=lambda n: n.host):
        ends = sorted(per_host_end.get(node.host, []), reverse=True)
        for slot in range(getattr(node, slots_attr)):
            # Approximate per-slot availability: stagger by assignment order.
            free_at = ends[slot] if slot < len(ends) else 0.0
            slot_free.append((max(free_at, quorum_time), node.host))
    slot_free.sort()

    stragglers = [
        p for p in by_end[quorum_index:]
        if config.is_straggler(p.end - p.start, median_duration)
    ]
    stragglers.sort(key=lambda p: -(p.end - p.start))

    updated = {p.task_id: p for p in placements}
    backups_launched = 0
    backups_won = 0
    for straggler in stragglers[: config.max_backups]:
        if not slot_free:
            break
        free_at, host = slot_free.pop(0)
        task = tasks_by_id[straggler.task_id]
        backup_duration = duration_fn(task, host)
        backup_end = free_at + backup_duration
        backups_launched += 1
        if backup_end < straggler.end:
            backups_won += 1
            updated[straggler.task_id] = Placement(
                task_id=straggler.task_id,
                host=host,
                start=free_at,
                end=backup_end,
                data_local=host in task.preferred_hosts,
            )

    return SpeculativeOutcome(
        [updated[p.task_id] for p in placements], backups_launched, backups_won
    )


def heterogeneous_cluster(slow_factor: float = 3.0, slow_nodes: int = 1) -> ClusterSpec:
    """The paper-style local cluster with some deliberately slow nodes —
    the straggler scenario speculation exists for."""
    from .specs import NetworkSpec, NodeSpec

    nodes = []
    for i in range(6):
        speed = 5.0e6 / (slow_factor if i < slow_nodes else 1.0)
        nodes.append(NodeSpec(host=f"het{i:02d}", speed=speed))
    return ClusterSpec(name="heterogeneous", nodes=tuple(nodes),
                       network=NetworkSpec(60e6, 0.002))
