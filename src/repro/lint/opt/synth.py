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

The matcher itself (:func:`~repro.lint.proofs.match_fold`) lives in the
leaf module :mod:`repro.lint.proofs`, beside the two run-time proofs
built on it: ``combiner_fold`` (the int folds at every combine site)
and ``reducer_proof`` (the reduce loop's fold and pass-through paths).
Those load on every job, so they must not pull in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...engine.api import Combiner
from ..proofs import FOLD_AGGS, FoldMismatch, match_fold
from ..target import JobTarget
from .plan import ACTION_ADVISED, ACTION_REJECTED, ACTION_SKIPPED, OPT_SYNTH, PlanDecision


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
        return SynthesizedFoldCombiner(self.writable_cls, FOLD_AGGS[self.agg_name])

    def describe(self) -> str:
        return f"synthesized {self.agg_name}-fold combiner over {self.writable_cls.__name__}"


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
