"""Run-time proofs about user folds: what ``combine()`` and ``reduce()``
provably compute, so the engine can run its cheaper equivalent.

Two templates are matched structurally over the class's own source:

* the monoid fold ``emit(key, W(sum|min|max(v.value for v in values)))``
  over an exact-int value class (:func:`match_fold`) — licenses the
  int folds of frequency buffering, node combining and the serialized
  combine sites (:func:`combiner_fold`), and the reduce loop's fold
  path (:func:`reducer_proof`);
* the identity ``for v in values: emit(key, v)`` — licenses the reduce
  loop's pass-through, which builds the output pairs straight from the
  merged bytes (:func:`reducer_proof`).

Anything whose source hides what runs gets no proof and the generic
path: ``Fn*`` adapters, delegating proxies, an inherited method, a
decorated one, and — for reducers — any ``setup``/``cleanup`` defined
below :class:`~repro.engine.api.Reducer`.  Each answer is cached per
class, so a process parses a class at most once.

This module is a leaf: it loads only :mod:`ast` and
:mod:`repro.lint.source`, never the rule catalog, so a job that asks
for a proof pays for the proof alone.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from functools import lru_cache

from ..engine.api import Reducer
from ..serde.numeric import IntWritable, LongWritable, VIntWritable
from ..serde.writable import Writable
from .source import ClassSource, class_source, method_params, positional_params

#: Monoid folds over ints that are exact at any re-association.
FOLD_AGGS = {"sum": builtins.sum, "min": builtins.min, "max": builtins.max}

#: Value classes whose ``.value`` round-trips Python ints exactly.
EXACT_VALUE_CLASSES = (IntWritable, LongWritable, VIntWritable)

#: :attr:`ReducerProof.agg` of a pass-through reducer.
IDENTITY = "identity"


def strip_docstring(body: list) -> list:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


@dataclass(frozen=True)
class FoldMismatch:
    """Why a method is not the fold template, anchored at *node*."""

    reason: str
    node: ast.AST


def match_fold(
    source: ClassSource,
    func: ast.FunctionDef,
    value_cls: type,
    rewraps_value_cls: bool = False,
) -> str | FoldMismatch:
    """Match *func*'s body against the one monoid-fold template,
    ``emit(key, W(sum|min|max(v.value for v in values)))`` over an
    exact-int *value_cls*; returns the aggregate's name or the defeating
    construct.  ``reduce()`` may wrap in any ``W`` (its output is the
    job's final output); a ``combine()`` whose
    output re-enters the map-output stream must name *value_cls*
    (*rewraps_value_cls*)."""
    name = func.name
    params = positional_params(func)
    key_name, values_name, emit_name = method_params(func)

    if func.decorator_list:
        return FoldMismatch(f"{name}() is decorated; its body may not be what runs", func)
    body = strip_docstring(func.body)
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        anchor = body[1] if len(body) > 1 else func
        return FoldMismatch(
            f"{name}() is not a single emit statement; fold shape unprovable", anchor
        )
    call = body[0].value
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == emit_name
        and len(call.args) == 2
        and not call.keywords
    ):
        return FoldMismatch(f"{name}() body is not an emit(key, value) call", body[0])
    key_arg, value_arg = call.args
    if not (isinstance(key_arg, ast.Name) and key_arg.id == key_name):
        return FoldMismatch(
            "emit rewrites the group key; a combiner must preserve it", key_arg
        )
    if not (
        isinstance(value_arg, ast.Call)
        and len(value_arg.args) == 1
        and not value_arg.keywords
    ):
        return FoldMismatch(
            "emitted value is not a wrapped aggregate W(agg(...))", value_arg
        )
    wrapper = value_arg.func
    if rewraps_value_cls and not (
        isinstance(wrapper, ast.Name)
        and wrapper.id not in params
        and source.namespace.get(wrapper.id) is value_cls
    ):
        return FoldMismatch(
            f"aggregate is not re-wrapped in the declared {value_cls.__name__}", value_arg
        )
    agg_call = value_arg.args[0]
    if not (
        isinstance(agg_call, ast.Call)
        and isinstance(agg_call.func, ast.Name)
        and len(agg_call.args) == 1
        and not agg_call.keywords
    ):
        return FoldMismatch("wrapped value is not a builtin aggregate call", agg_call)
    agg_name = agg_call.func.id
    if agg_name not in FOLD_AGGS:
        return FoldMismatch(
            f"{agg_name}() is not a recognized monoid fold "
            f"({'/'.join(sorted(FOLD_AGGS))})",
            agg_call,
        )
    if (
        agg_name in params
        or source.namespace.get(agg_name, FOLD_AGGS[agg_name]) is not FOLD_AGGS[agg_name]
    ):
        return FoldMismatch(
            f"{agg_name!r} is shadowed where {name}() is defined; not the builtin",
            agg_call,
        )
    gen = agg_call.args[0]
    if not (
        isinstance(gen, ast.GeneratorExp)
        and len(gen.generators) == 1
        and not gen.generators[0].ifs
        and not gen.generators[0].is_async
    ):
        return FoldMismatch(
            "aggregate is not a plain one-generator comprehension", agg_call
        )
    comp = gen.generators[0]
    if not (isinstance(comp.iter, ast.Name) and comp.iter.id == values_name):
        return FoldMismatch(
            f"fold does not iterate the {values_name} parameter", comp.iter
        )
    if not isinstance(comp.target, ast.Name):
        return FoldMismatch("fold destructures its element", comp.target)
    elt = gen.elt
    if isinstance(elt, ast.Constant):
        return FoldMismatch(
            f"{name}() counts records ({agg_name}({elt.value!r} for ...)); a "
            "combiner would collapse the very records being counted",
            elt,
        )
    if not (
        isinstance(elt, ast.Attribute)
        and elt.attr == "value"
        and isinstance(elt.value, ast.Name)
        and elt.value.id == comp.target.id
    ):
        return FoldMismatch("generator element is not the raw value (v.value)", elt)
    if not (isinstance(value_cls, type) and issubclass(value_cls, EXACT_VALUE_CLASSES)):
        return FoldMismatch(
            f"map-output value class {getattr(value_cls, '__name__', value_cls)!r} "
            "is not an exact integer writable; re-associating the fold could "
            "change bytes",
            func,
        )
    return agg_name


@lru_cache(maxsize=256)
def combiner_fold(combiner_cls: type, value_cls: type) -> str | None:
    """``"sum"|"min"|"max"`` when *combiner_cls*'s own ``combine()`` is
    provably that fold re-wrapped in *value_cls*, else ``None``.

    Frequency buffering and node combining use the answer to fold raw
    ints in place instead of calling ``combine()``.  It is a proof about
    the source, so it holds whatever ``repro.lint.mode`` says; anything
    whose source hides the fold — ``Fn*`` adapters, delegating proxies,
    inherited ``combine()`` — gets ``None`` and the generic fold.  One
    parse per class per process."""
    source = class_source(combiner_cls)
    func = source.method("combine") if source is not None else None
    if func is None:
        return None
    verdict = match_fold(source, func, value_cls, rewraps_value_cls=True)
    return verdict if isinstance(verdict, str) else None


@dataclass(frozen=True)
class ReducerProof:
    """What a reducer's ``reduce()`` provably is: :data:`IDENTITY`, or a
    ``sum``/``min``/``max`` fold whose result ``reduce()`` wraps in
    *wrapper*."""

    agg: str
    wrapper: type | None = None

    @property
    def identity(self) -> bool:
        return self.agg == IDENTITY


def _is_identity(func: ast.FunctionDef) -> bool:
    """``for v in values: emit(key, v)`` and nothing else."""
    params = positional_params(func)
    key_name, values_name, emit_name = method_params(func)
    body = strip_docstring(func.body)
    if len(body) != 1 or not isinstance(body[0], ast.For):
        return False
    loop = body[0]
    target, statement = loop.target, loop.body[0]
    if not (
        isinstance(target, ast.Name)
        and target.id not in params
        and isinstance(loop.iter, ast.Name)
        and loop.iter.id == values_name
        and not loop.orelse
        and len(loop.body) == 1
        and isinstance(statement, ast.Expr)
    ):
        return False
    call = statement.value
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == emit_name
        and not call.keywords
        and len(call.args) == 2
    ):
        return False
    key_arg, value_arg = call.args
    return (
        isinstance(key_arg, ast.Name)
        and key_arg.id == key_name
        and isinstance(value_arg, ast.Name)
        and value_arg.id == target.id
    )


@lru_cache(maxsize=256)
def reducer_proof(reducer_cls: type, value_cls: type) -> ReducerProof | None:
    """What *reducer_cls*'s own ``reduce()`` provably computes over
    *value_cls* values, or ``None``.

    The reduce loop uses the answer to skip ``reduce()`` and the
    writable round trip.  Only a plain ``reduce(self, key, values,
    emit)`` defined undecorated in the class itself qualifies, and only
    when no class below :class:`~repro.engine.api.Reducer` defines
    ``setup`` or ``cleanup`` (so nothing the pass-through skips could
    have observed a group).  One parse per class per process."""
    if not (
        isinstance(reducer_cls, type)
        and issubclass(reducer_cls, Reducer)
        and reducer_cls.setup is Reducer.setup
        and reducer_cls.cleanup is Reducer.cleanup
    ):
        return None
    source = class_source(reducer_cls)
    if source is None or source.cls is not reducer_cls:
        return None
    func = source.method("reduce")
    code = getattr(vars(reducer_cls).get("reduce"), "__code__", None)
    if (
        func is None
        or func.decorator_list
        or code is None
        or code.co_firstlineno != func.lineno
    ):
        return None  # inherited, decorated, or not the function that runs
    arguments = func.args
    if (
        len(arguments.args) != 4
        or arguments.posonlyargs
        or arguments.vararg
        or arguments.kwonlyargs
        or arguments.kwarg
    ):
        return None
    if _is_identity(func):
        return ReducerProof(IDENTITY)
    verdict = match_fold(source, func, value_cls)
    if isinstance(verdict, FoldMismatch):
        return None
    # match_fold accepted the shape: emit(key, W(agg(...))) alone.
    [statement] = strip_docstring(func.body)
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
    emitted = statement.value.args[1]
    assert isinstance(emitted, ast.Call)
    wrapper = emitted.func
    if not isinstance(wrapper, ast.Name) or wrapper.id in positional_params(func):
        return None
    wrapper_cls = source.namespace.get(wrapper.id)
    if not (isinstance(wrapper_cls, type) and issubclass(wrapper_cls, Writable)):
        return None
    return ReducerProof(verdict, wrapper_cls)
