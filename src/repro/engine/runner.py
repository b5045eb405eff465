"""The local job runner: executes a whole job in-process.

This is the engine's front door.  It computes splits, assembles the
per-task machinery according to the job's configuration — standard or
frequency-buffering collector, static or spill-matcher policy — runs
every map task and every reduce task, and returns a :class:`JobResult`
with outputs and full accounting.

The two optimizations are wired here and *only* here, which is the
paper's headline property: no user code changes, only a small amount of
framework plumbing.  (The imports of :mod:`repro.core` are lazy because
core builds on the engine.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import JobConf, Keys
from ..errors import ConfigError, LintError
from ..io.blockdisk import LocalDisk
from ..io.records import decode_records
from ..serde.writable import Writable
from .collector import MapOutputCollector, StandardCollector
from .combiner import CombinerRunner
from .counters import Counters
from .instrumentation import Ledger, TaskInstruments
from .job import JobSpec
from .maptask import MapTaskResult
from .pipeline import PipelineResult
from .reducetask import ReduceTaskResult
from .spillpolicy import SpillPolicy, StaticSpillPolicy

if TYPE_CHECKING:  # pragma: no cover - lint and exec layer on engine; typing only
    from ..exec.base import Executor
    from ..lint import LintReport


@dataclass
class JobResult:
    """The outcome of one job run: outputs plus merged accounting."""

    job_name: str
    map_results: list[MapTaskResult]
    reduce_results: list[ReduceTaskResult]
    ledger: Ledger
    counters: Counters
    #: Deterministic short identifier of the job that produced this
    #: result (:meth:`~repro.engine.job.JobSpec.job_id`): stable across
    #: runs and backends, so reruns of the same job are recognizable.
    job_id: str = ""
    #: Per-host shuffle-server traffic (network shuffle only; empty in
    #: ``mem`` mode).  Elements are
    #: :class:`~repro.shuffle.server.ShuffleHostStats`.
    shuffle_hosts: list = field(default_factory=list)
    #: ``task_id -> cumulative attempts consumed`` for this job's tasks
    #: (first attempts included), the raw material behind the
    #: ``task_reexecutions`` counter and the failure report.
    task_attempts: dict[str, int] = field(default_factory=dict)
    #: Static-analysis report (``repro.lint.mode`` = warn/strict only;
    #: ``None`` when linting was off).  Carries any gating decisions the
    #: runner applied, e.g. freqbuf forced off for an unverified combiner.
    lint_report: "LintReport | None" = None

    def _parts(self) -> list[ReduceTaskResult]:
        return sorted(self.reduce_results, key=lambda r: r.partition)

    @property
    def output_records(self) -> int:
        """Output pairs over all reduce tasks (no decoding)."""
        return sum(r.output_records for r in self.reduce_results)

    def output_pairs(self) -> list[tuple[Writable, Writable]]:
        """All reduce outputs as writables, in partition order then key
        order, decoded from the part files."""
        out: list[tuple[Writable, Writable]] = []
        for result in self._parts():
            out.extend(result.output)
        return out

    def output_digest(self) -> str:
        """SHA-256 over the serialized final output, in partition order
        then key order — the job's *content* identity.  Two runs of a
        deterministic job produce the same digest on every backend.  It
        reads the part files' bytes, which are each pair's ``to_bytes()``
        (the Writable contract: ``from_bytes(b).to_bytes() == b``)."""
        import hashlib

        digest = hashlib.sha256()
        for result in self._parts():
            chunks: list[bytes] = []
            for key, value in decode_records(result.records):
                chunks += (len(key).to_bytes(4, "big"), key, len(value).to_bytes(4, "big"), value)
            digest.update(b"".join(chunks))
        return digest.hexdigest()

    def pipeline_results(self) -> list[PipelineResult]:
        return [r.pipeline for r in self.map_results]

    @property
    def total_work(self) -> float:
        return self.ledger.total()


#: *shared_state*'s key of the node's key -> partition memo.
SHARED_PARTITION_MEMO = "collector.partition_memo"


def build_spill_policy(conf: JobConf) -> SpillPolicy:
    """Static Hadoop policy, or the paper's adaptive spill-matcher."""
    if conf.get_bool(Keys.SPILLMATCHER_ENABLED):
        from ..core.spillmatcher.controller import SpillMatcherPolicy

        return SpillMatcherPolicy(initial_percent=conf.get_fraction(Keys.SPILL_PERCENT))
    return StaticSpillPolicy(conf.get_fraction(Keys.SPILL_PERCENT))


def build_collector(
    job: JobSpec,
    task_id: str,
    disk: LocalDisk,
    instruments: TaskInstruments,
    counters: Counters,
    shared_state: dict,
) -> MapOutputCollector:
    """Assemble the collector stack for one map task.

    *shared_state* is a per-node scratch dict for one run of the job:
    it shares the standard collector's partition memo and the
    discovered frequent-key set across tasks on the same node (Section
    III-B: "our system finds the top-k frequent-key set just once for
    all the tasks that run on a single node").
    """
    conf = job.conf
    freqbuf_enabled = conf.get_bool(Keys.FREQBUF_ENABLED)
    capacity = conf.get_positive_int(Keys.SPILL_BUFFER_BYTES)
    spill_capacity = capacity
    if freqbuf_enabled:
        # Section V-B2: a fixed total memory budget — the frequent-key
        # hash table takes its share out of the spill buffer.
        fraction = conf.get_fraction(Keys.FREQBUF_BUFFER_FRACTION)
        spill_capacity = max(1, int(capacity * (1.0 - fraction)))

    combiner_runner = None
    if job.combiner_factory is not None:
        combiner_runner = CombinerRunner(
            job.combiner_factory(),
            job.map_output_key_cls,
            job.map_output_value_cls,
            job.user_costs,
            counters,
        )

    codec = None
    codec_name = conf.get_str(Keys.SPILL_COMPRESSION)
    if codec_name != "identity":
        from ..io.compression import codec_by_name

        codec = codec_by_name(codec_name)

    standard = StandardCollector(
        task_id=task_id,
        disk=disk,
        num_partitions=job.num_reducers,
        partitioner=job.partitioner,
        policy=build_spill_policy(conf),
        capacity_bytes=spill_capacity,
        cost_model=job.cost_model,
        instruments=instruments,
        counters=counters,
        combiner_runner=combiner_runner,
        exact_comparisons=conf.get_bool(Keys.EXACT_COMPARISON_COUNTING),
        sort_factor=conf.get_positive_int(Keys.SORT_FACTOR),
        codec=codec,
    )
    if standard.partition_memo is not None:
        standard.partition_memo = shared_state.setdefault(
            SHARED_PARTITION_MEMO, standard.partition_memo
        )
    if not freqbuf_enabled:
        return standard

    from ..core.freqbuf.collector import FrequencyBufferingCollector

    return FrequencyBufferingCollector.from_conf(
        inner=standard,
        job=job,
        hash_budget_bytes=capacity - spill_capacity,
        instruments=instruments,
        counters=counters,
        combiner_runner=combiner_runner,
        shared_state=shared_state,
    )


class LocalJobRunner:
    """Runs jobs in-process on a configurable execution backend.

    The default (``serial``) backend is the original single-node
    reference loop; the ``cluster`` backend runs task attempts in
    forked worker daemons, one node each (:mod:`repro.exec`).  Which
    backend runs is taken from the job's own configuration
    (``repro.exec.backend`` / ``repro.exec.workers``), so applications
    and experiments opt in without code changes — the same property the
    paper's optimizations have.

    The cluster simulator (:class:`~repro.cluster.jobtracker.
    ClusterJobRunner`) runs the same job plan over one more transport,
    which places tasks on a modelled cluster's slots and network.

    Failed tasks (user-code exceptions) are retried with a fresh task
    attempt — fresh mapper/reducer objects, fresh disk, fresh collector —
    up to ``repro.task.max.attempts`` times, Hadoop's task-attempt
    semantics; a task that exhausts its attempts fails the job with
    :class:`~repro.errors.JobFailedError`.  ``task_attempts`` mirrors the
    executor's per-task attempt counts after (and during) a run.
    """

    def __init__(self, host: str = "localhost") -> None:
        self.host = host
        self.task_attempts: dict[str, int] = {}

    def run(self, job: JobSpec) -> JobResult:
        job, lint_report = lint_at_submit(job)
        executor = executor_for(job, self.host)
        # Share the dict so attempt counts are visible even when the run
        # raises (tests and tools inspect them after a JobFailedError).
        executor.task_attempts = self.task_attempts
        result = executor.run(job)
        result.lint_report = lint_report
        return result


def executor_for(job: JobSpec, host: str = "localhost") -> "Executor":
    """The executor *job*'s own configuration asks for
    (``repro.exec.backend`` / ``repro.exec.workers``)."""
    from ..exec import create_executor

    return create_executor(
        job.conf.get_str(Keys.EXEC_BACKEND),
        workers=job.conf.get_int(Keys.EXEC_WORKERS),
        host=host,
    )


def lint_at_submit(job: JobSpec) -> "tuple[JobSpec, LintReport | None]":
    """Apply ``repro.lint.mode`` to a job about to run.

    ``off``
        No analysis; the job runs exactly as configured.
    ``warn``
        Analyze and *gate*: optimizations the analyzer cannot prove
        safe (today: frequency-buffering without a verified fold-like
        combiner) are switched off in the returned job; findings ride
        along in the report but never block the run.
    ``strict``
        As ``warn``, but a job with error-severity findings is refused
        outright with :class:`~repro.errors.LintError` before any task
        runs — the Manimal stance that an optimizing runtime should not
        execute code it cannot reason about.
    """
    mode = job.conf.get_str(Keys.LINT_MODE)
    if mode not in ("off", "warn", "strict"):
        raise ConfigError(
            f"{Keys.LINT_MODE}={mode!r} is not one of 'off', 'warn', 'strict'"
        )
    if mode == "off":
        return job, None
    from ..lint import analyze_job, gate_job

    report = analyze_job(job)
    if mode == "strict" and report.has_errors:
        summary = "; ".join(
            f"{f.rule_id} at {f.anchor}" for f in report.errors[:4]
        )
        more = len(report.errors) - 4
        if more > 0:
            summary += f" (+{more} more)"
        raise LintError(
            f"job {job.name!r} refused by static analysis "
            f"({len(report.errors)} error finding(s)): {summary}",
            report=report,
        )
    return gate_job(job, report), report
