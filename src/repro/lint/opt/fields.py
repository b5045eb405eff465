"""Projection pruning: which fields of the map-output values are read?

Manimal's projection benefit: if the reduce side provably reads only
fields ``{i, j}`` of a delimited intermediate value, the other fields
are dead weight through collect, spill, sort, merge, and shuffle.  This
module computes the read-field set of a job's reducer by exhaustively
classifying every use of the ``values`` parameter:

* ``values`` itself may only be iterated (``for v in values`` or a
  comprehension generator) — never aliased, subscripted, or passed on.
* Each element variable may only appear as ``v.value.split(DELIM)``
  with one constant non-empty string delimiter.
* Each split result may only be consumed by constant non-negative
  subscript *reads* — directly (``...split(d)[i]``) or through a local
  (``fields = v.value.split(d)`` followed by ``fields[i]`` loads).

Any other use — re-emitting the value whole, writing into the split
list, ``join``-ing it back, negative or computed indices — defeats the
proof and rejects with that use's ``file:line`` anchor.  The surviving
read set becomes a :class:`repro.serde.projection.FieldProjection` that
blanks dead fields *in place* (field count preserved), so every
surviving subscript lands exactly where it did before.

Jobs with a combiner are skipped: the combiner is a second consumer
*and* re-producer of the same stream, and none of the registered apps
need that generality.
"""

from __future__ import annotations

import ast

from ...serde.projection import FieldProjection
from ...serde.text import Text
from ..source import ClassSource, method_params
from ..target import JobTarget
from .plan import ACTION_ADVISED, ACTION_REJECTED, ACTION_SKIPPED, OPT_PROJECT, PlanDecision


class _Defeated(Exception):
    def __init__(self, reason: str, node: ast.AST) -> None:
        super().__init__(reason)
        self.reason = reason
        self.node = node


def _parent_map(func: ast.FunctionDef) -> dict:
    return {
        child: parent
        for parent in ast.walk(func)
        for child in ast.iter_child_nodes(parent)
    }


def _constant_index(node: ast.expr) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _classify(func: ast.FunctionDef, values_name: str) -> tuple[str, frozenset]:
    """``(delimiter, keep)`` for the reduce body, or raise _Defeated."""
    parents = _parent_map(func)
    element_vars: set[str] = set()
    split_calls: list[ast.Call] = []
    delimiters: set[str] = set()
    indices: set[int] = set()
    fields_vars: set[str] = set()
    sanctioned_assigns: set[ast.Assign] = set()

    # Pass 1: every use of the values parameter must be an iteration.
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id == values_name):
            continue
        if not isinstance(node.ctx, ast.Load):
            raise _Defeated(f"{values_name} is rebound inside reduce()", node)
        parent = parents.get(node)
        if isinstance(parent, ast.For) and parent.iter is node:
            target = parent.target
        elif isinstance(parent, ast.comprehension) and parent.iter is node:
            target = parent.target
        else:
            raise _Defeated(
                f"{values_name} is used beyond plain iteration; the value "
                "stream escapes the field analysis",
                node,
            )
        if not isinstance(target, ast.Name):
            raise _Defeated("iteration destructures the values", target)
        element_vars.add(target.id)

    if not element_vars:
        raise _Defeated("reducer never iterates its values", func)

    # Pass 2: every element-variable read must be v.value.split(DELIM).
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id in element_vars):
            continue
        if isinstance(node.ctx, ast.Store):
            parent = parents.get(node)
            if isinstance(parent, (ast.For, ast.comprehension)) and parent.target is node:
                continue  # the sanctioned loop binding itself
            raise _Defeated("element variable is rebound outside its loop", node)
        dot_value = parents.get(node)
        if not (
            isinstance(dot_value, ast.Attribute)
            and dot_value.attr == "value"
            and isinstance(dot_value.ctx, ast.Load)
        ):
            raise _Defeated(
                "value used whole (not through .value.split(...)); projection "
                "cannot prove any field dead",
                node,
            )
        dot_split = parents.get(dot_value)
        if not (isinstance(dot_split, ast.Attribute) and dot_split.attr == "split"):
            raise _Defeated(
                "value text used beyond .split(...); field boundaries unknown",
                dot_value,
            )
        call = parents.get(dot_split)
        if not (isinstance(call, ast.Call) and call.func is dot_split):
            raise _Defeated("un-called .split reference", dot_split)
        if call.keywords or len(call.args) != 1:
            raise _Defeated(
                "split() must take exactly one delimiter argument "
                "(maxsplit changes the field layout)",
                call,
            )
        delim = call.args[0]
        if not (
            isinstance(delim, ast.Constant)
            and isinstance(delim.value, str)
            and delim.value
        ):
            raise _Defeated("split delimiter is not a non-empty string constant", delim)
        delimiters.add(delim.value)
        split_calls.append(call)

        # What consumes the split result?
        consumer = parents.get(call)
        if (
            isinstance(consumer, ast.Subscript)
            and consumer.value is call
            and isinstance(consumer.ctx, ast.Load)
        ):
            index = _constant_index(consumer.slice)
            if index is None or index < 0:
                raise _Defeated(
                    "split result indexed by a non-constant or negative "
                    "index; the read field set is unbounded",
                    consumer,
                )
            indices.add(index)
        elif (
            isinstance(consumer, ast.Assign)
            and consumer.value is call
            and len(consumer.targets) == 1
            and isinstance(consumer.targets[0], ast.Name)
        ):
            fields_vars.add(consumer.targets[0].id)
            sanctioned_assigns.add(consumer)
        else:
            raise _Defeated(
                "split result used beyond constant-index reads", call
            )

    # Pass 3: locals holding a split result may only be constant-read.
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id in fields_vars):
            continue
        parent = parents.get(node)
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            if isinstance(parent, ast.Assign) and parent in sanctioned_assigns:
                continue
            raise _Defeated(
                "split-fields local is rebound to something else", node
            )
        if not (
            isinstance(parent, ast.Subscript)
            and parent.value is node
            and isinstance(parent.ctx, ast.Load)
        ):
            raise _Defeated(
                "split fields used whole (aliased, written, or re-joined); "
                "a dead field could escape through this use",
                parent if parent is not None else node,
            )
        index = _constant_index(parent.slice)
        if index is None or index < 0:
            raise _Defeated(
                "split fields indexed by a non-constant or negative index",
                parent,
            )
        indices.add(index)

    if not split_calls or not indices:
        raise _Defeated("reducer reads no delimited fields", func)
    if len(delimiters) != 1:
        raise _Defeated(
            f"mixed split delimiters {sorted(delimiters)}; no single field "
            "layout to project",
            func,
        )
    return next(iter(delimiters)), frozenset(indices)


def detect_projection(target: JobTarget) -> tuple:
    """Returns ``(FieldProjection | None, PlanDecision)``."""

    def rejected(reason: str, node: ast.AST, source: ClassSource):
        return None, PlanDecision(
            OPT_PROJECT,
            ACTION_REJECTED,
            reason,
            file=source.file,
            line=getattr(node, "lineno", 0),
        )

    def skipped(reason: str):
        return None, PlanDecision(OPT_PROJECT, ACTION_SKIPPED, reason)

    job = target.job
    if job.map_output_value_cls is not Text:
        return skipped(
            f"map-output values are {job.map_output_value_cls.__name__}, "
            "not delimited Text"
        )
    if job.combiner_factory is not None:
        return skipped(
            "job declares a combiner, a second consumer of the value stream"
        )
    reducer = target.reducer
    if not reducer.analyzable:
        return skipped("reducer source is not analyzable")
    source = reducer.source
    assert source is not None
    func = source.method("reduce")
    if func is None:
        return skipped("reducer inherits reduce(); field reads not visible here")
    _, values_name, _ = method_params(func)
    try:
        delimiter, keep = _classify(func, values_name)
    except _Defeated as defeat:
        return rejected(defeat.reason, defeat.node, source)
    projection = FieldProjection(delimiter=delimiter, keep=keep)
    return projection, PlanDecision(
        OPT_PROJECT,
        ACTION_ADVISED,
        f"reduce() reads only field(s) {sorted(keep)} of the "
        f"{delimiter!r}-delimited values; dead fields prunable at map output",
        file=source.file,
        line=func.lineno,
        detail=projection.describe(),
    )
