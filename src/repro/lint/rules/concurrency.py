"""Self-lint: thread discipline of the engine's own shared classes.

The live pipeline (:mod:`repro.exec.livepipeline`) consumes the
collector's spills on a real support thread while the map thread keeps
collecting.  Its safety argument is a *written* protocol: the support
thread works against thread-private accounting objects and may publish
only through a small documented set of shared attributes; the map
thread must never touch the support thread's private state outside the
join points.  This rule turns that prose into a check, so a refactor
that quietly adds a cross-thread write fails ``repro lint --engine``
(and CI) instead of corrupting accounting one run in a thousand.

Contract model (:class:`ThreadContract`), per class:

* ``support_methods`` run on (or are invoked from) the support thread.
  They may assign or mutate **only** ``shared_writes`` (the documented
  cross-thread attributes, e.g. the parked ``_error``) and
  ``support_private`` (the support thread's own accounting).
* Every other method is map-side and may not read **or** write
  ``support_private`` — except the ``join_methods``, where the two
  sides legitimately meet (``__init__``, ``join``, ``abort``).
* A contract naming a support or join method the class does not define
  is itself an error: the check it stood for silently stopped running.

Mutation means attribute assignment or an in-place container-mutator
call (``append``, ``update``, ...) on a ``self`` attribute.  Deeper
aliasing is out of scope — the point is to freeze the documented
protocol, not to prove the program.

``engine-thread-safety`` (error) findings anchor to the offending
statement in the engine source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..findings import Finding, Severity
from ..source import class_source
from .base import MUTATOR_METHODS, finding

RULE_ID = "engine-thread-safety"


@dataclass(frozen=True)
class ThreadContract:
    """The documented thread protocol of one engine class."""

    cls: type
    support_methods: tuple[str, ...]
    #: Attributes either side may write (the documented handoff surface).
    shared_writes: tuple[str, ...] = ()
    #: The support thread's private state; map-side code must not touch.
    support_private: tuple[str, ...] = ()
    #: Methods where both sides legitimately meet; exempt from checks.
    join_methods: tuple[str, ...] = ("__init__",)

    def describe(self) -> str:
        return (
            f"{self.cls.__module__}.{self.cls.__qualname__}: support side = "
            f"{', '.join(self.support_methods) or '(none)'}"
        )


def _default_contracts() -> tuple[ThreadContract, ...]:
    # Imported lazily so `repro.lint` does not drag the execution stack
    # in at import time (core already layers on engine).
    from ...cluster.runtime.membership import Membership
    from ...dag.cache import SingleFlight
    from ...engine.collector import StandardCollector
    from ...engine.grouping import SortGrouping
    from ...exec.livepipeline import SupportThread
    from ...serve.queue import FairQueue

    return (
        # The collector's consume + observe half of a spill cycle runs
        # on the live support thread: accounting sinks are parameters,
        # and the only self-mutations allowed are publishing the finished
        # spill index (map side reads it after join, in flush()) and the
        # next spill target.  The spill buffer is map-private — it is
        # drained *before* the handoff, so any support-side touch of
        # `buffer` is a bug this contract catches.
        ThreadContract(
            cls=StandardCollector,
            support_methods=("_consume", "_observe"),
            shared_writes=("spill_indices", "_spill_target"),
        ),
        # The packed sort's half of _consume: charges only the sinks it
        # is handed and writes nothing on self.
        ThreadContract(
            cls=SortGrouping,
            support_methods=("runs", "_combine_sorted"),
        ),
        # The live spill execution: its loop may park an error; its
        # accounting stays in privates that map-side code must not touch
        # until join.
        ThreadContract(
            cls=SupportThread,
            support_methods=("_loop",),
            shared_writes=("_error",),
            support_private=("instruments", "counters", "combiner_runner"),
            join_methods=("__init__", "join", "abort"),
        ),
        # The dataflow cache's single-flight table: every method may run
        # on any pipeline scheduler thread; under the lock the only
        # mutable state is the flights dict itself.
        ThreadContract(
            cls=SingleFlight,
            support_methods=("begin", "done", "in_flight"),
            shared_writes=("_flights",),
        ),
        # The job service's deficit-round-robin queue: submission
        # handlers push while scheduler threads pop/drain; all mutation
        # stays within the four lock-guarded structures (per-lane state
        # hangs off _lanes values, not off self).
        ThreadContract(
            cls=FairQueue,
            support_methods=(
                "push", "pop", "_pop_drr", "close", "drain", "__len__", "queued_for",
            ),
            shared_writes=("_lanes", "_ring", "_size", "_closed"),
        ),
        # The cluster master's membership table: ping-handler threads
        # and the scheduling loop share it; only the worker-record dict
        # is ever (re)bound on self — state transitions mutate the
        # records it holds, under the same lock.  A dataclass: its
        # generated __init__ has no source to exempt.
        ThreadContract(
            cls=Membership,
            support_methods=(
                "register", "heartbeat", "mark_dead", "sweep",
                "get", "records", "alive", "schedulable",
            ),
            shared_writes=("_workers",),
            join_methods=(),
        ),
    )


@dataclass
class EngineConcurrencyRule:
    """Checks engine thread contracts (runs in self-lint, not per job)."""

    prefix: str = RULE_ID
    contracts: tuple[ThreadContract, ...] = field(default_factory=_default_contracts)

    def check_engine(self) -> Iterable[Finding]:
        for contract in self.contracts:
            yield from self._check_contract(contract)

    def _check_contract(self, contract: ThreadContract) -> Iterator[Finding]:
        source = class_source(contract.cls)
        if source is None:
            # An unresolvable engine class is itself a regression worth
            # failing on: the contract silently stopped being checked.
            file = getattr(contract.cls, "__module__", "<unknown>")
            yield Finding(RULE_ID, Severity.ERROR, file, 0,
                          f"cannot resolve source for contracted class {contract.describe()}")
            return
        defined = {func.name for func in source.methods()}
        for name in (*contract.support_methods, *contract.join_methods):
            if name not in defined:
                yield finding(
                    RULE_ID, Severity.ERROR, source.file, source.node,
                    f"stale contract {contract.describe()}: the class defines "
                    f"no method {name}()",
                )
        allowed_support = set(contract.shared_writes) | set(contract.support_private)
        for func in source.methods():
            if func.name in contract.join_methods:
                continue
            if func.name in contract.support_methods:
                yield from self._check_support_side(contract, source.file, func, allowed_support)
            else:
                yield from self._check_map_side(contract, source.file, func)

    def _check_support_side(
        self, contract: ThreadContract, file: str, func: ast.FunctionDef, allowed: set[str]
    ) -> Iterator[Finding]:
        cls_name = contract.cls.__name__
        for node, attr in _self_writes(func):
            if attr not in allowed:
                yield finding(
                    RULE_ID, Severity.ERROR, file, node,
                    f"{cls_name}.{func.name}() runs on the support thread but "
                    f"writes self.{attr}, which is not in the documented "
                    f"shared set {sorted(allowed)}",
                )

    def _check_map_side(
        self, contract: ThreadContract, file: str, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        if not contract.support_private:
            return
        cls_name = contract.cls.__name__
        private = set(contract.support_private)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in private
            ):
                yield finding(
                    RULE_ID, Severity.ERROR, file, node,
                    f"{cls_name}.{func.name}() is map-side but touches the "
                    f"support thread's private self.{node.attr} outside the "
                    f"join methods {sorted(contract.join_methods)}",
                )


def _self_writes(func: ast.FunctionDef) -> Iterator[tuple[ast.AST, str]]:
    """Attribute assignments and container-mutator calls on ``self``."""
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for tgt in targets:
            if (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
            ):
                yield node, tgt.attr
            elif (
                isinstance(tgt, ast.Subscript)
                and isinstance(tgt.value, ast.Attribute)
                and isinstance(tgt.value.value, ast.Name)
                and tgt.value.value.id == "self"
            ):
                yield node, tgt.value.attr
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "self"
        ):
            yield node, node.func.value.attr
