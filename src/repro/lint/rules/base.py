"""Rule base class and shared AST helpers."""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from ..findings import Finding, Severity
from ..target import JobTarget


class Rule(ABC):
    """One job-safety property, checked over a :class:`JobTarget`."""

    #: Findings from one rule share this id prefix (e.g. ``combiner-``),
    #: which the gating logic uses to attribute verdicts to rules.
    prefix: str = ""
    description: str = ""

    @abstractmethod
    def check(self, target: JobTarget) -> Iterable[Finding]:
        """Yield findings for the target (empty when the rule passes)."""


def finding(
    rule_id: str, severity: Severity, file: str, node: ast.AST, message: str
) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=severity,
        file=file,
        line=getattr(node, "lineno", 0),
        message=message,
    )


# ----------------------------------------------------------------------
# emit() call discovery
# ----------------------------------------------------------------------
def iter_emit_calls(func: ast.FunctionDef, emit_name: str) -> Iterator[ast.Call]:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == emit_name
        ):
            yield node


def toplevel_emit_statements(func: ast.FunctionDef, emit_name: str) -> list[ast.Call]:
    """Emit calls that are unconditional straight-line statements of the
    method body (not nested under a loop or branch)."""
    calls = []
    for stmt in func.body:
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == emit_name
        ):
            calls.append(stmt.value)
    return calls


# ----------------------------------------------------------------------
# name and attribute analysis
# ----------------------------------------------------------------------
def self_attribute_writes(
    func: ast.FunctionDef, self_name: str = "self"
) -> Iterator[tuple[ast.AST, str]]:
    """``(node, attr)`` for every assignment targeting ``self.<attr>``."""
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                yield node, target.attr


#: Methods that mutate the common containers in place; calling one on a
#: shared object is a write for contract-checking purposes.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "__setitem__",
        # deque mutators
        "popleft",
        "appendleft",
        "rotate",
    }
)


def local_names(func: ast.FunctionDef) -> set[str]:
    """Names that are local to the function: parameters plus anything
    ever bound inside it (assignments, loop targets, with/except
    aliases, comprehension targets)."""
    names = {arg.arg for arg in func.args.args}
    names.update(arg.arg for arg in func.args.kwonlyargs)
    if func.args.vararg:
        names.add(func.args.vararg.arg)
    if func.args.kwarg:
        names.add(func.args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return names


def root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None
