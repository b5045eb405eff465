"""The static optimizer: from safety gate to rewrite engine.

Where :mod:`repro.lint` *refuses or gates* unsafe jobs, this package
*improves* safe ones — the second half of the Manimal idea.  Three
per-job rewrites (selection pushdown, projection pruning, combiner
synthesis) are detected by AST dataflow over the user's own map/reduce
code and recorded as anchored :class:`PlanDecision`\\ s; ``apply`` mode
installs them on an equivalent job whose output is byte-identical to
the unoptimized run.
"""

from .engine import OPT_MODES, apply_plan, plan_job
from .fields import detect_projection
from .plan import (
    ACTION_ADVISED,
    ACTION_APPLIED,
    ACTION_DISABLED,
    ACTION_REJECTED,
    ACTION_SKIPPED,
    OPT_PROJECT,
    OPT_SELECT,
    OPT_SYNTH,
    OptimizationPlan,
    PlanDecision,
)
from .predicates import detect_selection
from .synth import FoldCombinerFactory, SynthesizedFoldCombiner, detect_fold

__all__ = [
    "ACTION_ADVISED",
    "ACTION_APPLIED",
    "ACTION_DISABLED",
    "ACTION_REJECTED",
    "ACTION_SKIPPED",
    "OPT_MODES",
    "OPT_PROJECT",
    "OPT_SELECT",
    "OPT_SYNTH",
    "FoldCombinerFactory",
    "OptimizationPlan",
    "PlanDecision",
    "SynthesizedFoldCombiner",
    "apply_plan",
    "detect_fold",
    "detect_projection",
    "detect_selection",
    "plan_job",
]
