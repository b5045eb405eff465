"""Stage declarations: the nodes of a dataflow pipeline.

A pipeline is a graph of stages connected by *named datasets* — plain
byte strings handed between stages through the DFS layer.  Every stage
produces exactly one dataset, named after the stage (or an explicit
``output=``); downstream stages declare which datasets they consume via
``inputs=``.

Three stage kinds cover the workloads:

:class:`SourceStage`
    Materializes a dataset from a generator function (corpus / crawl
    synthesis, external ingest).  No MapReduce job runs.
:class:`JobStage`
    Builds a :class:`~repro.engine.job.JobSpec` from its input datasets
    and runs it on the configured execution backend; the job's final
    output is *rendered* back to bytes (default: ``key<TAB>value``
    lines) to become the stage's dataset.
:class:`IterativeStage`
    A :class:`JobStage` run repeatedly by the iterative driver: each
    iteration's rendered output becomes the next iteration's *state*
    input, until a convergence predicate holds (or the iteration cap
    stops it).  PageRank-to-fixpoint is the canonical instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..config import JobConf
from ..engine.job import JobSpec, source_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.runner import JobResult


@dataclass
class StageContext:
    """What a stage's builder sees: materialized inputs + effective conf.

    ``inputs`` maps each declared input dataset name to its bytes (for
    an :class:`IterativeStage`, the state input holds the *current*
    iteration's state).  ``conf`` carries the pipeline-level overrides
    the runner will overlay onto the built job, so builders may consult
    them; ``iteration`` is 0 except under the iterative driver.
    """

    inputs: dict[str, bytes]
    conf: JobConf = field(default_factory=JobConf)
    iteration: int = 0


JobBuilder = Callable[[StageContext], JobSpec]
Renderer = Callable[["JobResult"], bytes]
ConvergencePredicate = Callable[[bytes, bytes, int], bool]
"""``(previous_state, new_state, iteration) -> converged?``"""


def render_tsv(result: "JobResult") -> bytes:
    """Default dataset renderer: one ``key<TAB>value`` line per output
    pair, in the job's deterministic partition-then-key order.  Writable
    wrappers contribute their plain ``.value``; exotic writables without
    one fall back to ``repr`` (override the renderer for those)."""
    lines = []
    for key, value in result.output_pairs():
        k = getattr(key, "value", key)
        v = getattr(value, "value", value)
        lines.append(f"{k}\t{v}")
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


class Stage:
    """Common stage surface: name, input edges, output edge."""

    def __init__(self, name: str, inputs: tuple[str, ...], output: str | None) -> None:
        if not name:
            raise ValueError("stage name must be non-empty")
        self.name = name
        self.inputs = inputs
        self.output = output or name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, inputs={list(self.inputs)})"


class SourceStage(Stage):
    """Materializes a dataset from a generator callable.

    ``params`` is any repr-stable description of the generator's inputs
    (a spec dataclass, a dict, a seed); it joins the generator's source
    text in the cache key, so changing either regenerates.
    """

    def __init__(
        self,
        name: str,
        generate: Callable[[], bytes],
        params: object = None,
        output: str | None = None,
    ) -> None:
        super().__init__(name, (), output)
        self.generate = generate
        self.params = params

    def source_digest_parts(self) -> list[str]:
        return [source_fingerprint(self.generate), repr(self.params)]


class JobStage(Stage):
    """Runs one MapReduce job built from the stage's input datasets."""

    def __init__(
        self,
        name: str,
        build: JobBuilder,
        inputs: tuple[str, ...] | list[str] = (),
        render: Renderer = render_tsv,
        output: str | None = None,
    ) -> None:
        super().__init__(name, tuple(inputs), output)
        self.build = build
        self.render = render

    def source_digest_parts(self) -> list[str]:
        return [source_fingerprint(self.build), source_fingerprint(self.render)]


class IterativeStage(JobStage):
    """A job stage driven to fixpoint by the iterative driver.

    ``state_input`` names which of the stage's inputs is the evolving
    state (default: the first input); the other inputs stay constant
    across iterations.  After each run the rendered output replaces the
    state, and ``converged(previous, new, iteration)`` decides whether
    to stop.  ``max_iterations`` (``None`` = the runner's
    :data:`~repro.dag.scheduler.MAX_ITERATIONS`) bounds the driver.
    """

    def __init__(
        self,
        name: str,
        build: JobBuilder,
        converged: ConvergencePredicate,
        inputs: tuple[str, ...] | list[str],
        state_input: str | None = None,
        max_iterations: int | None = None,
        render: Renderer = render_tsv,
        output: str | None = None,
    ) -> None:
        super().__init__(name, build, inputs, render, output)
        if not self.inputs:
            raise ValueError(f"iterative stage {name!r} needs at least a state input")
        self.converged = converged
        self.state_input = state_input or self.inputs[0]
        if self.state_input not in self.inputs:
            raise ValueError(
                f"iterative stage {name!r}: state input {self.state_input!r} "
                f"is not among its inputs {list(self.inputs)}"
            )
        self.max_iterations = max_iterations

    def source_digest_parts(self) -> list[str]:
        return super().source_digest_parts() + [
            source_fingerprint(self.converged),
            f"state={self.state_input};max={self.max_iterations}",
        ]
