"""Purity and determinism of the per-record user methods.

The cluster backend runs task attempts in daemons forked from the
master; the net shuffle's equivalence guarantee and task-retry
correctness both assume a retried or re-run
``map()``/``reduce()``/``combine()`` produces byte-identical output.
Checked properties:

``purity-global-write`` (error)
    Mutating module-level state from a per-record method: silently
    diverges under the cluster backend (each forked daemon mutates its
    own copy) and breaks retry determinism (a retried attempt starts
    from what the failed one left behind).

``purity-nondeterministic`` (error)
    Wall-clock (``time.time`` & friends, ``datetime.now``) or unseeded
    randomness (``random.*``, ``uuid.uuid4``, ``os.urandom``) in a
    per-record method: a retried attempt emits different bytes, so
    net-vs-mem equivalence and speculative execution both break.

``purity-task-state`` (warning)
    Assigning ``self`` attributes inside ``map()``/``reduce()``/
    ``combine()``.  Safe today only because every attempt builds a
    fresh instance; it violates the documented stateless contract and
    blocks instance sharing.  Initialization belongs in ``setup()``.

``purity-io`` (warning)
    ``open()``/``input()`` in a per-record method: hidden side channel
    the schedulers and retry machinery know nothing about.

``setup()``, ``cleanup()`` and ``__init__`` are exempt: per-attempt
initialization (e.g. WordPOSTag building its HMM tagger in ``setup``)
is exactly what they are for.
"""

from __future__ import annotations

import ast
import types
from typing import Iterable

from ..findings import Finding, Severity
from ..source import ClassSource
from ..target import JobTarget, UserClass
from .base import MUTATOR_METHODS, Rule, finding, local_names, root_name

#: Call patterns whose results differ run-to-run.  ``module name ->
#: attribute names`` (empty set = any attribute counts).
_NONDETERMINISTIC_ATTRS: dict[str, frozenset[str]] = {
    "time": frozenset({"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}),
    "random": frozenset(
        {"random", "randint", "randrange", "uniform", "choice", "choices", "shuffle", "sample", "gauss", "getrandbits"}
    ),
    "datetime": frozenset({"now", "utcnow", "today"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "os": frozenset({"urandom"}),
}

_PER_RECORD_METHODS = ("map", "reduce", "combine")


class PurityRule(Rule):
    prefix = "purity-"
    description = "map()/reduce()/combine() must be pure and deterministic"

    def check(self, target: JobTarget) -> Iterable[Finding]:
        for user_class in target.user_classes():
            if not user_class.analyzable:
                continue
            source = user_class.source
            assert source is not None
            for method_name in _PER_RECORD_METHODS:
                func = source.method(method_name)
                if func is None:
                    continue
                yield from self._check_method(user_class, source, func)

    def _check_method(
        self, user_class: UserClass, source: ClassSource, func: ast.FunctionDef
    ) -> Iterable[Finding]:
        cls_name = source.cls.__name__
        where = f"{cls_name}.{func.name}()"
        locals_ = local_names(func)

        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield finding(
                    "purity-global-write",
                    Severity.ERROR,
                    source.file,
                    node,
                    f"{where} declares global {', '.join(node.names)}: "
                    "module state mutated per record is fork-divergent and "
                    "retry-unsafe",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for tgt in targets:
                    if isinstance(tgt, ast.Attribute) and isinstance(tgt.value, ast.Name) and tgt.value.id == "self":
                        yield finding(
                            "purity-task-state",
                            Severity.WARNING,
                            source.file,
                            node,
                            f"{where} writes self.{tgt.attr}: per-record "
                            "methods are documented stateless; initialize "
                            "in setup() instead",
                        )
                    elif isinstance(tgt, ast.Subscript):
                        name = root_name(tgt)
                        if name and self._is_module_mutable(name, locals_, source):
                            yield finding(
                                "purity-global-write",
                                Severity.ERROR,
                                source.file,
                                node,
                                f"{where} writes into module-level "
                                f"{name!r}: lost under the cluster backend's "
                                "fork, and a retried attempt sees it",
                            )
            elif isinstance(node, ast.Call):
                yield from self._check_call(node, where, locals_, source)

    def _check_call(
        self, node: ast.Call, where: str, locals_: set[str], source: ClassSource
    ) -> Iterable[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("open", "input") and func.id not in locals_:
                yield finding(
                    "purity-io",
                    Severity.WARNING,
                    source.file,
                    node,
                    f"{where} calls {func.id}(): per-record I/O is a side "
                    "channel the retry and speculation machinery cannot see",
                )
            return
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            return
        base, attr = func.value.id, func.attr
        if base in locals_:
            return
        flagged = _NONDETERMINISTIC_ATTRS.get(base)
        if flagged is not None and attr in flagged:
            # Confirm the name really is the stdlib module (or an
            # equally-named module) in the defining namespace, so a
            # local helper object named `random` is not flagged.
            resolved = source.namespace.get(base)
            if resolved is None or isinstance(resolved, types.ModuleType):
                yield finding(
                    "purity-nondeterministic",
                    Severity.ERROR,
                    source.file,
                    node,
                    f"{where} calls {base}.{attr}(): retried or speculated "
                    "attempts would emit different bytes, breaking "
                    "determinism and net-vs-mem equivalence",
                )
        elif self._is_module_mutable(base, locals_, source) and attr in MUTATOR_METHODS:
            yield finding(
                "purity-global-write",
                Severity.ERROR,
                source.file,
                node,
                f"{where} calls {base}.{attr}(): mutating module-level "
                "state per record is fork-divergent and retry-unsafe",
            )

    @staticmethod
    def _is_module_mutable(name: str, locals_: set[str], source: ClassSource) -> bool:
        """Is *name* a module-level mutable container (not a local)?"""
        if name in locals_ or name == "self":
            return False
        value = source.namespace.get(name)
        return isinstance(value, (list, dict, set, bytearray))
