"""Deterministic fault injection across the whole stack (``repro.faults``).

Grown out of the network shuffle's fault plan (PR 2), this package turns
fault injection into a first-class subsystem: one seeded
:class:`FaultPlan` names *sites* (disk, dfs, worker, shuffle, master)
and *kinds* (corrupt, torn, kill, hang, heartbeat_drop, ...), and ambient fault points
spread through the framework consult it at the exact moments real
hardware betrays real jobs — a spill read handing back corrupt bytes, a
block replica failing digest verification, a worker process dying
mid-task.  Everything is deterministic: whether a site fires is a
stable hash of ``(seed, site, kind, token)``, and only the first
``attempts`` task attempts are hurt, so bounded retries always converge
and chaos tests never flake.

Select a plan with the ``repro.faults.spec`` conf key, the ``--fault``
CLI flag on ``repro run``, or the ``REPRO_FAULT`` environment
variable; see :mod:`repro.faults.plan` for the spec grammar.  The
shuffle-specific plan the shuffle server consumes is derived from the
unified plan's ``shuffle.*`` rule in :mod:`repro.faults.shuffle`.
"""

from __future__ import annotations

from .plan import FAULT_SITES, SITE_KINDS, FaultPlan, FaultRule, parse_fault_spec
from .runtime import (
    FaultInjector,
    active_injector,
    drop_heartbeat,
    installed,
    mark_worker_process,
    task_scope,
)
from .shuffle import FaultPlan as ShuffleFaultPlan

__all__ = [
    "FAULT_SITES",
    "SITE_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "ShuffleFaultPlan",
    "active_injector",
    "drop_heartbeat",
    "installed",
    "mark_worker_process",
    "parse_fault_spec",
    "task_scope",
]
