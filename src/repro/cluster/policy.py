"""The speculation policy: backend-agnostic straggler thresholds.

Both speculation consumers — the discrete-event simulator
(:mod:`repro.cluster.speculation`) and the real master/worker runtime
(:mod:`repro.cluster.runtime.master`) — answer the same three questions
before launching a backup attempt:

1. *Is the phase far enough along to judge?*  Hadoop speculates only
   once a quorum of the phase has completed, so the median completed
   duration is a meaningful yardstick (:meth:`SpeculationPolicy.
   quorum_index` / :meth:`quorum_reached`).
2. *Is this task actually lagging?*  A running (or projected) duration
   past ``slowdown_threshold`` x the median marks a straggler
   (:meth:`is_straggler`).  ``min_task_seconds`` floors the comparison
   for real clocks, where a noisy median of a few milliseconds would
   otherwise call everything a straggler; the simulator's exact clock
   keeps it at 0.
3. *Is there room?*  At most ``max_backups`` backup attempts per wave
   (:meth:`backup_allowed`), and only on a free slot — slot
   availability itself stays with the scheduler that owns the slots.

The thresholds live here once so the simulator and the runtime cannot
drift apart.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable

from ..config import JobConf, Keys


@dataclass(frozen=True)
class SpeculationPolicy:
    """Tunables mirroring Hadoop's speculative-execution heuristics."""

    enabled: bool = True
    quorum_fraction: float = 0.5  # phase progress before speculating
    slowdown_threshold: float = 1.5  # x median duration to count as straggler
    max_backups: int = 4  # cap on simultaneous backup attempts
    min_task_seconds: float = 0.0  # never speculate on tasks younger than this

    # ------------------------------------------------------------------
    # progress-ratio thresholds
    # ------------------------------------------------------------------
    def quorum_index(self, total: int) -> int:
        """How many completions constitute a quorum for a *total*-task
        phase (at least one: a single completion gives a median)."""
        return max(1, int(total * self.quorum_fraction))

    def quorum_reached(self, completed: int, total: int) -> bool:
        return completed >= self.quorum_index(total)

    @staticmethod
    def median_duration(durations: Iterable[float]) -> float:
        """The yardstick stragglers are judged against (0.0 when no
        durations are known yet — :meth:`is_straggler` then never
        fires)."""
        values = list(durations)
        return statistics.median(values) if values else 0.0

    def is_straggler(self, duration: float, median: float) -> bool:
        """Is a task running (or projected) *duration* a straggler
        against the phase's *median* completed duration?"""
        if median <= 0:
            return False
        return duration > max(self.slowdown_threshold * median, self.min_task_seconds)

    # ------------------------------------------------------------------
    # slot-availability cap
    # ------------------------------------------------------------------
    def backup_allowed(self, backups_launched: int) -> bool:
        return self.enabled and backups_launched < self.max_backups

    # ------------------------------------------------------------------
    @classmethod
    def from_conf(cls, conf: JobConf) -> "SpeculationPolicy":
        """The runtime's policy, from ``repro.cluster.speculation.*``."""
        return cls(
            enabled=conf.get_bool(Keys.CLUSTER_SPECULATION),
            quorum_fraction=conf.get_fraction(Keys.CLUSTER_SPEC_QUORUM),
            slowdown_threshold=conf.get_float(Keys.CLUSTER_SPEC_SLOWDOWN),
            max_backups=conf.get_positive_int(Keys.CLUSTER_SPEC_MAX_BACKUPS),
            min_task_seconds=conf.get_float(Keys.CLUSTER_SPEC_MIN_SECONDS),
        )

