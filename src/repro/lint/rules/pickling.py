"""Picklability of what actually crosses the process boundary.

The cluster backend forks its worker daemons, so job specs — lambdas,
closures, and all — are inherited, never pickled (see
:mod:`repro.exec.workers`).  What *is* pickled is results: spill
indexes, counters, and reduce output — framed bytes plus the
:class:`~repro.serde.writable.Writable` classes they decode as
(:func:`~repro.serde.writable.class_ref`: a registered class by name,
any other by reference).  A writable class that pickle cannot find by
qualified name dies mid-run, after the maps have already burned their
CPU — the exact failure mode this rule rejects at submit time:

``pickle-local-writable`` (error)
    A declared map-output class (or a class a per-record method
    resolvably emits) defined inside a function body (``<locals>`` in
    its qualname) and not registered under its ``type_name``:
    ``pickle.dumps`` of the class raises ``PicklingError`` in the
    worker.  Registered run-time classes (e.g.
    ``repro.serde.composite``'s Pair/Array types) pickle by name and
    pass.
"""

from __future__ import annotations

from typing import Iterable

from ...serde.writable import class_ref
from ..findings import Finding, Severity
from ..source import ClassSource, class_location, method_params
from ..target import JobTarget
from .base import Rule, iter_emit_calls
from .serde import _emitted_class  # shared emit-argument resolution


def _unpicklable_by_name(cls: type) -> bool:
    return "<locals>" in getattr(cls, "__qualname__", "") and class_ref(cls) is cls


class PicklabilityRule(Rule):
    prefix = "pickle-"
    description = "emitted writables must survive the cluster backend's result pickle"

    def check(self, target: JobTarget) -> Iterable[Finding]:
        seen: set[type] = set()
        for declared, which in (
            (target.job.map_output_key_cls, "map-output key"),
            (target.job.map_output_value_cls, "map-output value"),
        ):
            if declared in seen:
                continue
            seen.add(declared)
            if _unpicklable_by_name(declared):
                file, line = class_location(declared)
                yield Finding(
                    rule_id="pickle-local-writable",
                    severity=Severity.ERROR,
                    file=file,
                    line=line,
                    message=(
                        f"declared {which} class {declared.__name__} is "
                        f"function-local ({declared.__qualname__}) and not "
                        "registered: the cluster backend cannot pickle it "
                        "back from its worker daemons"
                    ),
                )

        # Reduce output is pickled back verbatim; check what reduce()
        # resolvably constructs too.
        reducer = target.reducer
        if reducer.analyzable:
            assert reducer.source is not None
            yield from self._check_reduce_emits(reducer.source, seen)

    def _check_reduce_emits(
        self, source: ClassSource, seen: set[type]
    ) -> Iterable[Finding]:
        func = source.method("reduce")
        if func is None:
            return
        _, _, emit_name = method_params(func)
        for call in iter_emit_calls(func, emit_name):
            for arg in call.args[:2]:
                emitted = _emitted_class(arg, source.namespace)
                if emitted is None or emitted in seen:
                    continue
                seen.add(emitted)
                if _unpicklable_by_name(emitted):
                    yield Finding(
                        rule_id="pickle-local-writable",
                        severity=Severity.ERROR,
                        file=source.file,
                        line=getattr(arg, "lineno", 0),
                        message=(
                            f"{source.cls.__name__}.reduce() emits "
                            f"function-local class {emitted.__qualname__} "
                            "that is not registered: reduce output carries "
                            "its classes back from cluster worker daemons"
                        ),
                    )
