"""Self-lint: thread discipline of the shared, lock-guarded classes.

One class is touched from several threads at once: the cluster
master's :class:`~repro.cluster.runtime.membership.Membership` (ping
handlers and the scheduling loop).  Its safety argument is a *written*
protocol: under its lock, only a small documented set of attributes is
ever rebound or mutated on ``self``.  This rule turns that prose into a
check, so a refactor that quietly adds a cross-thread write fails
``repro lint --engine`` (and CI) instead of corrupting state one run in
a thousand.

Contract model (:class:`ThreadContract`), per class:

* ``support_methods`` may run on any thread.  They may assign or mutate
  **only** ``shared_writes`` (the documented lock-guarded attributes).
* ``join_methods`` (``__init__`` by default) run before the object is
  shared and are exempt.
* A contract naming a support or join method the class does not define
  is itself an error: the check it stood for silently stopped running.

Mutation means attribute assignment or an in-place container-mutator
call (``append``, ``update``, ...) on a ``self`` attribute.  Deeper
aliasing is out of scope — the point is to freeze the documented
protocol, not to prove the program.

``engine-thread-safety`` (error) findings anchor to the offending
statement in the source.
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
    #: Attributes any thread may write (the documented shared surface).
    shared_writes: tuple[str, ...] = ()
    #: Methods that run before the object is shared; exempt from checks.
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

    return (
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
        allowed = set(contract.shared_writes)
        for func in source.methods():
            if func.name in contract.support_methods:
                yield from self._check_support_side(contract, source.file, func, allowed)

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
