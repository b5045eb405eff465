"""Plan construction and application for the static optimizer.

:func:`plan_job` runs the three rewrite detectors over a job and
returns an :class:`OptimizationPlan` — one anchored decision per rule,
plus the rewrite artifacts for the proposals.  :func:`apply_plan`
turns proposals into an equivalent job via ``dataclasses.replace``:

* selection pushdown wraps the ``TextInput`` in a
  :class:`PreFilteredTextInput` carrying the compiled predicate;
* projection pruning installs the proven :class:`FieldProjection` as
  the job's ``value_projection``;
* combiner synthesis installs the :class:`FoldCombinerFactory`, then
  re-runs :class:`CombinerAlgebraRule` over the rewritten job so the
  report's fold-like verdict reflects the combiner that will actually
  run — which is what unlocks frequency buffering downstream.

The rewritten job pins the *original* job's id, so provenance keeps
recognizing it as the same computation (the rewrites are
output-preserving by construction).  Each rule honors its
``repro.lint.opt.<rule>`` conf switch with a ``disabled`` decision, so
every rewrite is individually refusable.
"""

from __future__ import annotations

import dataclasses

from ...config import Keys
from ...engine.inputformat import TextInput
from ...engine.job import JobSpec
from ...io.prefilter import PreFilteredTextInput, RecordPredicate
from ..findings import FOLD_VERIFIED, LintReport
from ..rules import CombinerAlgebraRule
from ..target import resolve_target
from .fields import detect_projection
from .plan import (
    ACTION_DISABLED,
    OPT_PROJECT,
    OPT_SELECT,
    OPT_SYNTH,
    OptimizationPlan,
    PlanDecision,
)
from .predicates import detect_selection
from .synth import detect_fold

#: Valid values of ``repro.lint.opt.mode``.
OPT_MODES = ("off", "advise", "apply")


def plan_job(job: JobSpec, subject: str | None = None, mode: str | None = None) -> OptimizationPlan:
    """Run every enabled rewrite detector over one job."""
    conf = job.conf
    if mode is None:
        mode = conf.get_str(Keys.LINT_OPT_MODE)
    target = resolve_target(job)
    plan = OptimizationPlan(subject=subject or job.name, mode=mode)

    if conf.get_bool(Keys.LINT_OPT_SELECT):
        plan.predicate_source, decision = detect_selection(target)
    else:
        decision = PlanDecision(
            OPT_SELECT, ACTION_DISABLED, f"switched off by {Keys.LINT_OPT_SELECT}"
        )
    plan.decisions.append(decision)

    if conf.get_bool(Keys.LINT_OPT_PROJECT):
        plan.projection, decision = detect_projection(target)
    else:
        decision = PlanDecision(
            OPT_PROJECT, ACTION_DISABLED, f"switched off by {Keys.LINT_OPT_PROJECT}"
        )
    plan.decisions.append(decision)

    if conf.get_bool(Keys.LINT_OPT_SYNTH):
        plan.synthesized_combiner, decision = detect_fold(target)
    else:
        decision = PlanDecision(
            OPT_SYNTH, ACTION_DISABLED, f"switched off by {Keys.LINT_OPT_SYNTH}"
        )
    plan.decisions.append(decision)
    return plan


def apply_plan(
    job: JobSpec, plan: OptimizationPlan, report: LintReport | None = None
) -> JobSpec:
    """Install the plan's proposals on an equivalent rewritten job.

    Returns the input job unchanged when the plan proposes nothing.
    The caller's ``report`` (when given) has its fold-like verdict
    refreshed after combiner synthesis.
    """
    changes: dict = {}
    if plan.predicate_source and isinstance(job.input_format, TextInput):
        changes["input_format"] = PreFilteredTextInput(
            job.input_format,
            RecordPredicate(plan.predicate_source, description=f"{plan.subject} selection"),
        )
        plan.mark_applied(OPT_SELECT)
    if plan.projection is not None:
        changes["value_projection"] = plan.projection
        plan.mark_applied(OPT_PROJECT)
    if plan.synthesized_combiner is not None and job.combiner_factory is None:
        changes["combiner_factory"] = plan.synthesized_combiner
        plan.mark_applied(OPT_SYNTH)
    if not changes:
        return job

    pinned = job.pinned_job_id or job.job_id()
    rewritten = dataclasses.replace(job, pinned_job_id=pinned, **changes)
    if "combiner_factory" in changes and report is not None:
        _reverify_fold(rewritten, report)
    return rewritten


def _reverify_fold(job: JobSpec, report: LintReport) -> None:
    """Re-run the combiner algebra over the rewritten job.

    The synthesized combiner is analyzed exactly like a user-written
    one; only a clean pass upgrades the verdict (a violation here would
    mean the synthesizer itself emitted a bad fold — never upgrade on
    faith)."""
    target = resolve_target(job)
    if target.combiner is None or not target.combiner.analyzable:
        return
    if not list(CombinerAlgebraRule().check(target)):
        report.fold_like = FOLD_VERIFIED
