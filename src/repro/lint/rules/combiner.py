"""Combiner algebra: is ``combine()`` a key-preserving fold?

Per-spill combining, merge-time re-combining, and the frequency
buffer's eager in-hash-table combining all assume the combiner can be
applied zero, one, or many times per key, to any partition of a key's
values, without changing the reduced result (:class:`repro.engine.api.
Combiner`'s documented contract).  Statically checkable necessary
conditions:

``combiner-key-rewrite`` (error)
    Every emit must pass the input key through unchanged.  A rewritten
    key lands in the wrong group (and can break the sorted-run
    invariant of the spill it is emitted into).

``combiner-missing-emit`` (error)
    A combiner with no reachable ``emit`` silently drops every group it
    is applied to.

``combiner-count-dependent`` (error)
    Using ``len(values)`` makes the result depend on how many values
    happened to be batched together — re-application collapses
    previously-combined values into one, changing the count.

``combiner-multi-emit`` (warning)
    Two or more unconditional straight-line emits multiply records per
    application; a fold emits one aggregate per group (conditional or
    per-variant emits, e.g. PageRank's structure record, are fine and
    not flagged).

``combiner-stateful`` (error)
    State on ``self`` carried across ``combine()`` calls breaks
    re-application.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding, Severity
from ..source import method_params
from ..target import JobTarget
from .base import (
    Rule,
    finding,
    iter_emit_calls,
    self_attribute_writes,
    toplevel_emit_statements,
)


class CombinerAlgebraRule(Rule):
    prefix = "combiner-"
    description = "combine() must be an associative, key-preserving fold"

    def check(self, target: JobTarget) -> Iterable[Finding]:
        combiner = target.combiner
        if combiner is None or not combiner.analyzable:
            return
        source = combiner.source
        assert source is not None
        func = source.method("combine")
        if func is None:
            # Abstract/odd combiner: nothing to verify here; the engine
            # will fail loudly if combine() is genuinely missing.
            return
        key_name, values_name, emit_name = method_params(func)

        emits = list(iter_emit_calls(func, emit_name))
        if not emits:
            yield finding(
                "combiner-missing-emit",
                Severity.ERROR,
                source.file,
                func,
                f"{source.cls.__name__}.combine() never calls {emit_name}(); "
                "every group it is applied to is silently dropped",
            )
        for call in emits:
            if not call.args:
                continue
            first = call.args[0]
            if not (isinstance(first, ast.Name) and first.id == key_name):
                yield finding(
                    "combiner-key-rewrite",
                    Severity.ERROR,
                    source.file,
                    first,
                    f"{source.cls.__name__}.combine() emits a key other than "
                    f"its input key {key_name!r}; combining must preserve "
                    "the group key exactly",
                )

        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == values_name
            ):
                yield finding(
                    "combiner-count-dependent",
                    Severity.ERROR,
                    source.file,
                    node,
                    f"{source.cls.__name__}.combine() uses len({values_name}): "
                    "the result depends on how values were batched, so "
                    "re-application (per spill, at merge, in the frequency "
                    "buffer) changes it",
                )

        straight_line = toplevel_emit_statements(func, emit_name)
        if len(straight_line) >= 2:
            yield finding(
                "combiner-multi-emit",
                Severity.WARNING,
                source.file,
                straight_line[1],
                f"{source.cls.__name__}.combine() unconditionally emits "
                f"{len(straight_line)} records per group; each re-application "
                "multiplies them — a fold emits one aggregate",
            )

        for node, attr in self_attribute_writes(func):
            yield finding(
                "combiner-stateful",
                Severity.ERROR,
                source.file,
                node,
                f"{source.cls.__name__}.combine() writes self.{attr}: state "
                "carried across groups breaks re-application and thread safety",
            )
