"""Auto-combiner synthesis: recognize pure monoid folds in reduce().

A job with no combiner ships every map-output record through the
shuffle.  When its ``reduce()`` is *exactly* a fold of a commutative,
associative monoid over the raw values —

    emit(key, W(sum(v.value for v in values)))      # or min / max

— partial aggregation is sound at any batching, so the optimizer can
synthesize the equivalent combiner itself.  The template is matched
structurally, not heuristically:

* the body is that single emit statement (docstring aside);
* the aggregate is an unshadowed builtin ``sum``/``min``/``max`` over a
  one-generator, no-condition comprehension whose element is the bare
  ``v.value``;
* the job's declared map-output value class is an exact integer
  writable (``IntWritable``/``LongWritable``/``VIntWritable``) — float
  folds are rejected because re-association changes bits, and
  byte-identity with the unoptimized run is the contract.

The count idiom ``sum(1 for _ in values)`` is *rejected by name*: a
combiner would collapse the records the reducer is counting.

The synthesized combiner is a module-level class driven by a picklable
frozen-dataclass factory, so it survives any backend boundary and the
existing :class:`CombinerAlgebraRule` can re-verify it like any
user-written combiner — which is how the freqbuf gate unlocks.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from functools import lru_cache

from ...engine.api import Combiner
from ...serde.numeric import IntWritable, LongWritable, VIntWritable
from ..rules.base import method_params
from ..source import ClassSource, class_source, positional_params
from ..target import JobTarget
from .plan import ACTION_ADVISED, ACTION_REJECTED, ACTION_SKIPPED, OPT_SYNTH, PlanDecision

#: Monoid folds over ints that are exact at any re-association.
_FOLD_AGGS = {"sum": builtins.sum, "min": builtins.min, "max": builtins.max}

#: Value classes whose ``.value`` round-trips Python ints exactly.
_EXACT_VALUE_CLASSES = (IntWritable, LongWritable, VIntWritable)


class SynthesizedFoldCombiner(Combiner):
    """A combiner the static optimizer wrote: one monoid fold per group.

    Key passes through untouched, the partial aggregate is re-wrapped
    in the job's declared map-output value class, and no state is
    carried across groups — by construction it satisfies every check in
    :class:`CombinerAlgebraRule`.
    """

    def __init__(self, writable_cls: type, agg) -> None:
        self._writable = writable_cls
        self._agg = agg

    def combine(self, key, values, emit) -> None:
        emit(key, self._writable(self._agg(v.value for v in values)))


@dataclass(frozen=True)
class FoldCombinerFactory:
    """Picklable factory for a :class:`SynthesizedFoldCombiner`."""

    writable_cls: type
    agg_name: str

    def __call__(self) -> SynthesizedFoldCombiner:
        return SynthesizedFoldCombiner(self.writable_cls, _FOLD_AGGS[self.agg_name])

    def describe(self) -> str:
        return f"synthesized {self.agg_name}-fold combiner over {self.writable_cls.__name__}"


def _strip_docstring(body: list) -> list:
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
    construct.  ``reduce()`` may wrap in any ``W`` (the synthesized
    combiner re-wraps in *value_cls* itself); a ``combine()`` whose
    output re-enters the map-output stream must name *value_cls*
    (*rewraps_value_cls*)."""
    name = func.name
    params = positional_params(func)
    key_name, values_name, emit_name = method_params(func)

    if func.decorator_list:
        return FoldMismatch(f"{name}() is decorated; its body may not be what runs", func)
    body = _strip_docstring(func.body)
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
    if agg_name not in _FOLD_AGGS:
        return FoldMismatch(
            f"{agg_name}() is not a recognized monoid fold "
            f"({'/'.join(sorted(_FOLD_AGGS))})",
            agg_call,
        )
    if (
        agg_name in params
        or source.namespace.get(agg_name, _FOLD_AGGS[agg_name]) is not _FOLD_AGGS[agg_name]
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
    if not (isinstance(value_cls, type) and issubclass(value_cls, _EXACT_VALUE_CLASSES)):
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


def detect_fold(target: JobTarget) -> tuple:
    """Returns ``(FoldCombinerFactory | None, PlanDecision)``."""

    def skipped(reason: str):
        return None, PlanDecision(OPT_SYNTH, ACTION_SKIPPED, reason)

    job = target.job
    if job.combiner_factory is not None:
        return skipped("job already declares a combiner")
    reducer = target.reducer
    if not reducer.analyzable:
        return skipped("reducer source is not analyzable")
    source = reducer.source
    assert source is not None
    func = source.method("reduce")
    if func is None:
        return skipped("reducer inherits reduce(); fold shape not visible here")

    verdict = match_fold(source, func, job.map_output_value_cls)
    if isinstance(verdict, FoldMismatch):
        return None, PlanDecision(
            OPT_SYNTH,
            ACTION_REJECTED,
            verdict.reason,
            file=source.file,
            line=getattr(verdict.node, "lineno", 0),
        )
    factory = FoldCombinerFactory(writable_cls=job.map_output_value_cls, agg_name=verdict)
    return factory, PlanDecision(
        OPT_SYNTH,
        ACTION_ADVISED,
        f"reduce() is a pure {verdict} fold over exact ints; an equivalent "
        "combiner can aggregate map-side",
        file=source.file,
        line=func.lineno,
        detail=factory.describe(),
    )
