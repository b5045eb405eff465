"""Whole-pipeline static analysis over :mod:`repro.dag` stage graphs.

Single-job analysis stops at a job's own boundaries; pipelines add the
handoffs.  :func:`analyze_pipeline` materializes every job stage's
:class:`JobSpec` (with empty placeholder inputs — builders only shape
the job, they never parse the data at build time), runs the per-job
rule catalog plus an advise-mode optimization plan on each, and then
checks the *edges*:

``pipeline-type-flow`` (error)
    A consumer stage's mapper tuple-unpacks its input lines by tab
    into N names, but the producer stage provably renders lines with a
    different field count (``render_tsv``'s ``key<TAB>value`` plus the
    tabs inside the reducer's emitted value text).  The mismatch dies
    at the first record of the downstream stage — after the upstream
    stage already burned its full runtime.

``pipeline-cache-poison`` (error)
    A stage whose user code trips ``purity-nondeterministic`` feeds the
    content-hash dataflow cache: the cache would pin *one* of that
    stage's many possible outputs and replay it forever, silently
    hiding the nondeterminism.  Reported only while caching is on.

Projection propagation rides along as notes: a consumer that provably
ignores tab fields of an upstream dataset (underscore-named unpack
targets) is surfaced so the upstream stage's output can be slimmed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ...dag.pipeline import Pipeline
from ...dag.stage import IterativeStage, JobStage, SourceStage, StageContext, render_tsv
from ...serde.text import Text
from ..engine import analyze_job
from ..findings import Finding, LintReport, Severity
from ..source import method_params
from ..target import resolve_target
from .engine import plan_job

#: Rule id whose presence in a stage report marks a nondeterministic stage.
_NONDET_RULE = "purity-nondeterministic"


@dataclass
class StageAnalysis:
    """One job stage's report (with its advise-mode plan attached)."""

    stage: str
    report: LintReport | None = None
    note: str | None = None  # builder failure / non-job stage

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "report": self.report.as_dict() if self.report else None,
            "note": self.note,
        }


@dataclass
class PipelineAnalysis:
    """Per-stage reports plus the cross-stage findings."""

    name: str
    stages: list[StageAnalysis] = field(default_factory=list)
    #: Cross-stage findings and notes (subject ``pipeline:<name>``).
    report: LintReport = None  # type: ignore[assignment]  # set in analyze_pipeline

    @property
    def has_errors(self) -> bool:
        if self.report is not None and self.report.has_errors:
            return True
        return any(s.report is not None and s.report.has_errors for s in self.stages)

    def stage_report(self, name: str) -> LintReport | None:
        for stage in self.stages:
            if stage.stage == name:
                return stage.report
        return None

    def as_dict(self) -> dict:
        return {
            "pipeline": self.name,
            "stages": [s.as_dict() for s in self.stages],
            "report": self.report.as_dict() if self.report is not None else None,
        }


# ----------------------------------------------------------------------
# per-edge shape extraction
# ----------------------------------------------------------------------
def _line_aliases(func: ast.FunctionDef, value_name: str) -> set[str]:
    """Local names bound (only) to ``value.value`` — the raw line."""
    aliases: set[str] = set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        rhs = node.value
        if (
            isinstance(rhs, ast.Attribute)
            and rhs.attr == "value"
            and isinstance(rhs.value, ast.Name)
            and rhs.value.id == value_name
        ):
            aliases.add(target.id)
    return aliases


def _tab_unpack(job) -> tuple[int, list[str], ast.AST, str] | None:
    """``(arity, target_names, node, file)`` of the consumer mapper's
    ``a, b, c = line.split("\\t")`` over the raw input line, if any."""
    target = resolve_target(job)
    mapper = target.mapper
    if not mapper.analyzable:
        return None
    source = mapper.source
    assert source is not None
    func = source.method("map")
    if func is None:
        return None
    _, value_name, _ = method_params(func)
    aliases = _line_aliases(func, value_name)
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        tup = node.targets[0]
        if not (
            isinstance(tup, ast.Tuple) and all(isinstance(e, ast.Name) for e in tup.elts)
        ):
            continue
        call = node.value
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "split"
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == "\t"
        ):
            continue
        receiver = call.func.value
        is_line = (isinstance(receiver, ast.Name) and receiver.id in aliases) or (
            isinstance(receiver, ast.Attribute)
            and receiver.attr == "value"
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == value_name
        )
        if is_line:
            return len(tup.elts), [e.id for e in tup.elts], node, source.file
    return None


def _emitted_tab_counts(job) -> list[int] | None:
    """Tab counts of the value texts the reducer provably emits, or
    ``None`` when any emit's value is unresolvable."""
    target = resolve_target(job)
    reducer = target.reducer
    if not reducer.analyzable:
        return None
    source = reducer.source
    assert source is not None
    func = source.method("reduce")
    if func is None:
        return None
    _, _, emit_name = method_params(func)
    counts: list[int] = []
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == emit_name
            and len(node.args) >= 2
        ):
            continue
        count = _value_tab_count(node.args[1], source.namespace)
        if count is None:
            return None
        counts.append(count)
    return counts or None


def _value_tab_count(node: ast.expr, namespace: dict) -> int | None:
    """Tabs in the rendered text of one emitted value, when provable."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return None
    wrapper = namespace.get(node.func.id)
    if not isinstance(wrapper, type) or len(node.args) != 1:
        return None
    if not issubclass(wrapper, Text):
        # Numeric writables render via str(value): never a tab.
        from ...serde.writable import Writable

        return 0 if issubclass(wrapper, Writable) else None
    inner = node.args[0]
    if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
        return inner.value.count("\t")
    if isinstance(inner, ast.JoinedStr):
        tabs = 0
        for part in inner.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                tabs += part.value.count("\t")
            elif isinstance(part, ast.FormattedValue):
                continue  # interpolations: assume tab-free (format specs are)
            else:
                return None
        return tabs
    return None


# ----------------------------------------------------------------------
# the analysis
# ----------------------------------------------------------------------
def analyze_pipeline(pipeline: Pipeline, cache_enabled: bool = True) -> PipelineAnalysis:
    """Analyze every job stage, then the dataset handoffs between them."""
    analysis = PipelineAnalysis(name=pipeline.name)
    analysis.report = LintReport(subject=f"pipeline:{pipeline.name}")
    jobs: dict[str, object] = {}

    for stage in pipeline.topological_order():
        if not isinstance(stage, JobStage):
            if isinstance(stage, SourceStage):
                analysis.stages.append(
                    StageAnalysis(
                        stage=stage.name, note="source stage: generator, no job to lint"
                    )
                )
            continue
        ctx = StageContext(inputs={name: b"" for name in stage.inputs})
        try:
            job = stage.build(ctx)
        except Exception as exc:  # noqa: BLE001 - stage builders are user code
            analysis.stages.append(
                StageAnalysis(
                    stage=stage.name,
                    note=f"stage builder failed on placeholder inputs: {exc}",
                )
            )
            continue
        subject = f"{pipeline.name}/{stage.name}"
        report = analyze_job(job, subject=subject)
        report.plan = plan_job(job, subject=subject, mode="advise")
        analysis.stages.append(StageAnalysis(stage=stage.name, report=report))
        jobs[stage.name] = job

    _check_handoffs(pipeline, jobs, analysis.report)
    if cache_enabled:
        _check_cache_poisoning(analysis)
    analysis.report.sort()
    return analysis


def _handoff_edges(pipeline: Pipeline, jobs: dict) -> list[tuple]:
    """(producer_stage, consumer_stage, dataset) pairs where both ends
    are built job stages — including an iterative stage's state loop,
    whose later iterations consume the stage's own rendered output."""
    edges = []
    for stage in pipeline.stages:
        if not isinstance(stage, JobStage) or stage.name not in jobs:
            continue
        for dataset in stage.inputs:
            producer = pipeline.producer_of(dataset)
            if isinstance(producer, JobStage) and producer.name in jobs:
                edges.append((producer, stage, dataset))
        if isinstance(stage, IterativeStage):
            edges.append((stage, stage, stage.state_input))
    return edges


def _check_handoffs(pipeline: Pipeline, jobs: dict, report: LintReport) -> None:
    for producer, consumer, dataset in _handoff_edges(pipeline, jobs):
        if producer.render is not render_tsv:
            report.notes.append(
                f"handoff {producer.name} -> {consumer.name}: custom renderer, "
                "line shape not analyzed"
            )
            continue
        unpack = _tab_unpack(jobs[consumer.name])
        if unpack is None:
            continue
        arity, names, node, file = unpack
        counts = _emitted_tab_counts(jobs[producer.name])
        if counts is not None:
            # render_tsv writes key<TAB>value: 2 fields plus the tabs
            # inside the emitted value text itself.
            produced = {2 + c for c in counts}
            if produced and arity not in produced:
                report.findings.append(
                    Finding(
                        rule_id="pipeline-type-flow",
                        severity=Severity.ERROR,
                        file=file,
                        line=getattr(node, "lineno", 0),
                        message=(
                            f"stage {consumer.name!r} unpacks {dataset!r} lines "
                            f"into {arity} tab fields, but stage {producer.name!r} "
                            f"renders {sorted(produced)} field(s) per line; the "
                            "consumer dies at its first record — after the "
                            "producer already ran"
                        ),
                    )
                )
        dead = [i for i, name in enumerate(names) if name.startswith("_")]
        if dead:
            report.notes.append(
                f"stage {consumer.name!r} ignores tab field(s) {dead} of "
                f"{dataset!r}; stage {producer.name!r} could project them out "
                "upstream"
            )


def _check_cache_poisoning(analysis: PipelineAnalysis) -> None:
    for stage in analysis.stages:
        if stage.report is None:
            continue
        for finding in stage.report.findings:
            if finding.rule_id != _NONDET_RULE:
                continue
            analysis.report.findings.append(
                Finding(
                    rule_id="pipeline-cache-poison",
                    severity=Severity.ERROR,
                    file=finding.file,
                    line=finding.line,
                    message=(
                        f"stage {stage.stage!r} is nondeterministic but its "
                        "output feeds the content-hash dataflow cache, which "
                        "would pin one arbitrary outcome and replay it as "
                        "truth; fix the nondeterminism or disable the "
                        "pipeline cache"
                    ),
                )
            )
