"""Deterministic fault injection across the whole stack (``repro.faults``).

One seeded :class:`FaultPlan` names *sites* (disk, dfs, worker,
shuffle, master) and *kinds* (corrupt, torn, kill, hang, refuse,
heartbeat_drop, ...), and ambient fault points spread through the
framework consult it at the exact moments real hardware betrays real
jobs — a spill read handing back corrupt bytes, a block replica failing
digest verification, a worker process dying mid-task, a shuffle server
refusing a fetch.  Everything is deterministic: whether a site fires is
a stable hash of ``(seed, site, kind, token)``, and only the first
``attempts`` task attempts (or requests, for the dfs, shuffle and
master sites) are hurt, so bounded retries always converge and chaos
tests never flake.

Select a plan with the ``repro.faults.spec`` conf key, the ``--fault``
CLI flag on ``repro run``, or the ``REPRO_FAULT`` environment
variable; see :mod:`repro.faults.plan` for the spec grammar and
:mod:`repro.faults.runtime` for the fault points.
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

__all__ = [
    "FAULT_SITES",
    "SITE_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active_injector",
    "drop_heartbeat",
    "installed",
    "mark_worker_process",
    "parse_fault_spec",
    "task_scope",
]
