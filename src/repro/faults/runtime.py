"""The ambient fault injector: where plans meet the running framework.

An executor *installs* the job's :class:`~repro.faults.plan.FaultPlan`
before it starts running tasks; fault points sprinkled through the
framework (:func:`corrupt_spill_read` in :mod:`repro.io.spillfile`,
:func:`corrupt_dfs_read` in :mod:`repro.dfs.datanode`,
:func:`shuffle_fault` in :mod:`repro.shuffle.server`,
:func:`worker_fault` in the task-attempt loop) consult the installed
injector and stay zero-cost no-ops when nothing is installed.  The
cluster backend relies on ``fork`` inheritance: the plan is installed
in the parent before the master forks its worker daemons, so every
daemon carries it without any pickling.

Three gates keep injection honest:

* **task scope** — disk faults fire only *inside* a task attempt
  (:func:`task_scope` is entered by the shared attempt loop), never
  during the parent's bookkeeping reads (materialization, analysis),
  which have no retry path and must stay trustworthy;
* **attempt bound** — a rule faults only attempts ``<= rule.attempts``
  of any task, so retries deterministically see clean runs;
* **worker process flag** — ``worker`` faults fire only inside real
  worker daemons (:func:`mark_worker_process`), so ``kill`` can never
  take down the test runner or a serial backend.

Installation is reentrant and plan-deduplicating: nested installs of an
equal plan (a caller's scope around an executor run) share one
injector, so fault-attempt counters stay coherent.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ..errors import DiskError
from .plan import FaultPlan, FaultRule

#: Exit code used by injected worker kills — the classic OOM-killer
#: signature (128 + SIGKILL), so parent-side reports look like the real
#: failures this harness rehearses.
KILLED_EXIT_CODE = 137

#: How long an injected ``hang`` sleeps.  Effectively forever at test
#: scale; the executor's task timeout is the only way out, which is the
#: point.
HANG_SECONDS = 3600.0


class FaultInjector:
    """One installed plan plus its bookkeeping (thread-safe)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.refs = 1
        self._lock = threading.Lock()
        self._attempts: dict[tuple[str, str], int] = {}
        #: ``site.kind -> count`` of faults actually injected in this
        #: process (workers keep their own tallies on their side of the
        #: fork; parent-side tests read this one).
        self.injected: dict[str, int] = {}

    # ------------------------------------------------------------------
    def record(self, rule: FaultRule) -> None:
        label = f"{rule.site}.{rule.kind}"
        with self._lock:
            self.injected[label] = self.injected.get(label, 0) + 1

    def armed_for_attempt(self, rule: FaultRule, token: str, attempt: int) -> bool:
        """Selection bounded by the *caller's* attempt number — the
        cross-process-safe gate (a rescheduled attempt knows its own
        cumulative number, no shared counter needed)."""
        return rule.selects(self.plan.seed, token) and attempt <= rule.attempts

    def armed_counted(self, rule: FaultRule, token: str) -> bool:
        """Selection bounded by an in-process per-token counter — for
        sites with no task attempt to key on (DFS replica reads)."""
        if not rule.selects(self.plan.seed, token):
            return False
        key = (f"{rule.site}.{rule.kind}", token)
        with self._lock:
            seen = self._attempts.get(key, 0) + 1
            self._attempts[key] = seen
        return seen <= rule.attempts


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
_LOCK = threading.Lock()
_STACK: list[FaultInjector] = []
#: Thread-local, not a module value: the shuffle server's handler
#: threads read segments through the same disk fault point while a
#: serial task runs, and must stay outside that task's scope.
_TLS = threading.local()
_IN_WORKER_PROCESS = False


def active_injector() -> FaultInjector | None:
    """The innermost installed injector, or ``None``."""
    return _STACK[-1] if _STACK else None


@contextmanager
def installed(plan: FaultPlan | None) -> Iterator[FaultInjector | None]:
    """Install *plan* for the duration of the block (no-op for empty
    plans).  Reentrant: an equal plan already installed is shared."""
    if plan is None or not plan.enabled:
        yield None
        return
    with _LOCK:
        injector = next((i for i in _STACK if i.plan == plan), None)
        if injector is not None:
            injector.refs += 1
        else:
            injector = FaultInjector(plan)
            _STACK.append(injector)
    try:
        yield injector
    finally:
        with _LOCK:
            injector.refs -= 1
            if injector.refs == 0 and injector in _STACK:
                _STACK.remove(injector)


def mark_worker_process() -> None:
    """Flag this process as a worker daemon (called by ``workerd`` right
    after fork); arms ``worker``-site faults."""
    global _IN_WORKER_PROCESS
    _IN_WORKER_PROCESS = True


# ----------------------------------------------------------------------
# task scope
# ----------------------------------------------------------------------
@contextmanager
def task_scope(task_id: str, attempt: int) -> Iterator[None]:
    """Mark the current thread as running attempt *attempt* (1-based,
    cumulative across crash reschedules) of *task_id*."""
    previous = getattr(_TLS, "scope", None)
    _TLS.scope = (task_id, attempt)
    try:
        yield
    finally:
        _TLS.scope = previous


def current_scope() -> tuple[str, int] | None:
    return getattr(_TLS, "scope", None)


# ----------------------------------------------------------------------
# fault points
# ----------------------------------------------------------------------
def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 0xFF]) + data[1:]


def corrupt_spill_read(path: str, stored: bytes) -> bytes:
    """Disk-site ``corrupt``: hand back flipped bytes for a selected
    spill-segment read, first ``attempts`` attempts of the reading task
    only.  The CRC check downstream turns this into a retryable
    :class:`~repro.errors.SerdeError`."""
    injector = active_injector()
    scope = current_scope()
    if injector is None or scope is None or not stored:
        return stored
    task_id, attempt = scope
    for rule in injector.plan.rules_for("disk", "corrupt"):
        if injector.armed_for_attempt(rule, f"{task_id}:{path}", attempt):
            injector.record(rule)
            return _flip(stored)
    return stored


def torn_spill_write(path: str) -> None:
    """Disk-site ``torn``: the writing task dies mid-spill-write.  The
    raised :class:`~repro.errors.DiskError` burns the attempt; a fresh
    attempt rewrites the spill on a fresh disk."""
    injector = active_injector()
    scope = current_scope()
    if injector is None or scope is None:
        return
    task_id, attempt = scope
    for rule in injector.plan.rules_for("disk", "torn"):
        if injector.armed_for_attempt(rule, f"{task_id}:{path}", attempt):
            injector.record(rule)
            raise DiskError(
                f"torn write of {path!r} in {task_id} (injected: the writer "
                "died mid-spill; this attempt's output is unusable)"
            )


def corrupt_dfs_read(block_token: str, payload: bytes) -> bytes:
    """DFS-site ``corrupt``: a datanode serves flipped bytes for a
    selected (block, host) replica, first ``attempts`` reads only.
    Digest verification catches it; the client fails over."""
    injector = active_injector()
    if injector is None or not payload:
        return payload
    for rule in injector.plan.rules_for("dfs", "corrupt"):
        if injector.armed_counted(rule, block_token):
            injector.record(rule)
            return _flip(payload)
    return payload


def shuffle_fault(task_id: str, partition: int) -> str | None:
    """Shuffle-site faults, fired by a shuffle server for each ``GET``
    of a selected (map task, partition) segment, first ``attempts``
    requests only, so the fetcher's bounded retries converge.  Returns
    the kind the server applies — ``refuse``, ``drop`` or ``truncate``
    — or ``None``; ``delay`` pauses ``delay_seconds`` here and is
    returned too, for the server's tally."""
    injector = active_injector()
    if injector is None:
        return None
    for rule in injector.plan.rules_for("shuffle"):
        if injector.armed_counted(rule, f"{task_id}:{partition}"):
            injector.record(rule)
            if rule.kind == "delay":
                time.sleep(injector.plan.delay_seconds)
            return rule.kind
    return None


def worker_fault(task_id: str, attempt: int) -> None:
    """Worker-site faults, fired at task-attempt entry inside worker
    daemons only: ``kill`` exits abruptly (exit code 137, the
    OOM signature), ``hang`` sleeps until the executor's task timeout
    reaps the worker, ``stall`` pauses briefly and continues."""
    injector = active_injector()
    if injector is None or not _IN_WORKER_PROCESS:
        return
    for rule in injector.plan.rules_for("worker"):
        if not injector.armed_for_attempt(rule, task_id, attempt):
            continue
        injector.record(rule)
        if rule.kind == "kill":
            os._exit(KILLED_EXIT_CODE)
        elif rule.kind == "hang":
            time.sleep(HANG_SECONDS)
        elif rule.kind == "stall":
            time.sleep(injector.plan.delay_seconds)
        return


def drop_heartbeat(worker_id: str) -> bool:
    """Master-site ``heartbeat_drop``: the cluster master silently
    discards a selected worker's ping (the worker believes it was
    heard).  Fires in the *master* process, so it is gated per-worker by
    the in-process attempt counter, not the worker-process flag: drop
    enough consecutive pings (rule attempts past the dead-miss
    threshold) and membership declares the worker dead even though the
    daemon is healthy — the asymmetric-partition case heartbeat
    protocols exist for."""
    injector = active_injector()
    if injector is None:
        return False
    for rule in injector.plan.rules_for("master", "heartbeat_drop"):
        if injector.armed_counted(rule, worker_id):
            injector.record(rule)
            return True
    return False
