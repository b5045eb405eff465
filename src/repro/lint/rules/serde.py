"""Serde consistency: emitted types vs declared map-output classes.

The engine deserializes intermediate records with the job's declared
``map_output_key_cls`` / ``map_output_value_cls`` — at combine time,
at merge time, and reduce-side.  A mapper (or combiner: its output
re-enters the same intermediate stream) that emits a different
writable type produces bytes the declared class misparses, typically
dying mid-run with a ``SerdeError`` or, worse, silently decoding to
garbage.  Checked statically where the emitted expression is
resolvable:

``serde-key-mismatch`` / ``serde-value-mismatch`` (error)
    An emit argument constructed as ``SomeWritable(...)`` (or via a
    helper with a resolvable return annotation) whose class is neither
    the declared class nor related to it by subclassing.

Expressions the analyzer cannot resolve (plain names, attribute
chains) are skipped, never guessed at.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable

from ...serde.writable import Writable
from ..findings import Finding, Severity
from ..source import ClassSource, method_params, resolve_annotation
from ..target import JobTarget
from .base import Rule, finding, iter_emit_calls

#: (role, method) pairs whose emits feed the intermediate stream and so
#: must match the declared map-output classes.
_INTERMEDIATE_EMITTERS = (("mapper", "map"), ("combiner", "combine"))


def _emitted_class(node: ast.expr, namespace: dict[str, Any]) -> type | None:
    """The Writable subclass an emit argument constructs, if resolvable."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return None
    resolved = namespace.get(node.func.id)
    if isinstance(resolved, type):
        return resolved if issubclass(resolved, Writable) else None
    if callable(resolved):
        annotation = getattr(resolved, "__annotations__", {}).get("return")
        cls = resolve_annotation(annotation, namespace)
        if isinstance(cls, type) and issubclass(cls, Writable):
            return cls
    return None


def _compatible(emitted: type, declared: type) -> bool:
    return issubclass(emitted, declared) or issubclass(declared, emitted)


class SerdeConsistencyRule(Rule):
    prefix = "serde-"
    description = "emitted writables must match the declared output classes"

    def check(self, target: JobTarget) -> Iterable[Finding]:
        declared_key = target.job.map_output_key_cls
        declared_value = target.job.map_output_value_cls
        by_role = {uc.role: uc for uc in target.user_classes()}
        for role, method_name in _INTERMEDIATE_EMITTERS:
            user_class = by_role.get(role)
            if user_class is None or not user_class.analyzable:
                continue
            source = user_class.source
            assert source is not None
            func = source.method(method_name)
            if func is None:
                continue
            yield from self._check_emits(source, func, declared_key, declared_value)

    def _check_emits(
        self,
        source: ClassSource,
        func: ast.FunctionDef,
        declared_key: type,
        declared_value: type,
    ) -> Iterable[Finding]:
        _, _, emit_name = method_params(func)
        where = f"{source.cls.__name__}.{func.name}()"
        for call in iter_emit_calls(func, emit_name):
            if len(call.args) < 2:
                continue
            for arg, declared, which in (
                (call.args[0], declared_key, "key"),
                (call.args[1], declared_value, "value"),
            ):
                emitted = _emitted_class(arg, source.namespace)
                if emitted is not None and not _compatible(emitted, declared):
                    yield finding(
                        f"serde-{which}-mismatch",
                        Severity.ERROR,
                        source.file,
                        arg,
                        f"{where} emits {which} {emitted.__name__} but the "
                        f"job declares {declared.__name__}; the engine will "
                        "deserialize these bytes with the declared class",
                    )
