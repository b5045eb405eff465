"""Source resolution: from a live class to its file, AST, and namespace.

The analyzer works on the *real* source of user classes so findings
carry honest ``file:line`` anchors.  Resolution can fail for perfectly
legal jobs (classes built in a REPL, ``type()``-manufactured writables,
``Fn*`` adapters around lambdas); those come back as ``None`` and the
rule engine records a note instead of guessing.
"""

from __future__ import annotations

import ast
import sys
import textwrap
from dataclasses import dataclass
from typing import Any, Iterator

from .. import introspect


@dataclass
class ClassSource:
    """A class plus its parsed definition, anchored to its file."""

    cls: type
    file: str
    node: ast.ClassDef
    #: The defining module's namespace, for resolving names the class
    #: body references (helper functions, writable classes, modules).
    namespace: dict[str, Any]

    def method(self, name: str) -> ast.FunctionDef | None:
        for stmt in self.node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return stmt
        return None

    def methods(self) -> Iterator[ast.FunctionDef]:
        for stmt in self.node.body:
            if isinstance(stmt, ast.FunctionDef):
                yield stmt


#: Bound on ``__wrapped__`` unwrapping — defends against cycles.
_MAX_UNWRAP = 8


def _unwrap(cls: type) -> type:
    """Follow ``__wrapped__`` to the class a decorator hid.

    Decorators that replace a class (registration wrappers,
    ``functools.wraps``-style shims) conventionally point back at the
    original via ``__wrapped__``; the wrapper itself usually has no
    retrievable source, so anchors would silently degrade to
    ``<unknown>:0`` without this hop."""
    for _ in range(_MAX_UNWRAP):
        wrapped = getattr(cls, "__wrapped__", None)
        if not isinstance(wrapped, type) or wrapped is cls:
            return cls
        cls = wrapped
    return cls


def class_source(cls: type) -> ClassSource | None:
    """Resolve a class to its parsed source, or ``None`` if impossible."""
    cls = _unwrap(cls)
    try:
        file = introspect.getsourcefile(cls)
        lines, start = introspect.getsourcelines(cls)
    except (OSError, TypeError, ValueError):
        # ValueError: inspect refuses __wrapped__ cycles it detects
        # itself (our _unwrap bails out of them, inspect's raises).
        return None
    if file is None:
        return None
    source = textwrap.dedent("".join(lines))
    try:
        tree = introspect.parse(source)
    except SyntaxError:
        return None
    node = next((n for n in tree.body if isinstance(n, ast.ClassDef)), None)
    if node is None:
        return None
    # Re-anchor the dedented snippet's line numbers to the real file.
    ast.increment_lineno(node, start - 1)
    module = sys.modules.get(cls.__module__)
    namespace = dict(vars(module)) if module is not None else {}
    return ClassSource(cls=cls, file=file, node=node, namespace=namespace)


def class_location(cls: type) -> tuple[str, int]:
    """Best-effort ``(file, line)`` for a class, even when unparsable."""
    cls = _unwrap(cls)
    try:
        file = introspect.getsourcefile(cls) or "<unknown>"
    except TypeError:
        file = "<unknown>"
    try:
        _, line = introspect.getsourcelines(cls)
    except (OSError, TypeError, ValueError):
        line = 0
    return file, line


def positional_params(func: ast.FunctionDef) -> list[str]:
    """Positional parameter names, ``self`` included."""
    return [arg.arg for arg in func.args.args]


def method_params(func: ast.FunctionDef) -> tuple[str, str, str]:
    """``(key, values, emit)`` parameter names of a map/combine/reduce
    method, positionally (the engine calls them positionally, so the
    names are whatever the user chose)."""
    params = positional_params(func)
    # [self, key, value(s), emit] — pad defensively for odd signatures.
    padded = params + ["key", "values", "emit"][max(0, len(params) - 1) :]
    return padded[1], padded[2], padded[3]


def resolve_annotation(annotation: Any, namespace: dict[str, Any]) -> Any:
    """Resolve a return annotation to a runtime object when it is a
    plain name (possibly stringized by ``from __future__ import
    annotations``); anything fancier returns ``None``."""
    if isinstance(annotation, str):
        name = annotation.strip().strip("'\"")
        if name.isidentifier():
            return namespace.get(name)
        return None
    return annotation if isinstance(annotation, type) else None
