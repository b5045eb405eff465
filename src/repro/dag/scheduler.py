"""The pipeline runner: topological, concurrent, cache-aware execution.

:class:`PipelineRunner` walks a validated :class:`~repro.dag.pipeline.
Pipeline` in dependency order, running every stage whose inputs are
materialized — independent stages concurrently, up to
:data:`MAX_CONCURRENT_STAGES` at a time.  Each job stage runs
through :class:`~repro.engine.runner.LocalJobRunner`, so the whole
existing execution stack applies per stage: backend selection
(``repro.exec.backend``), network shuffle, and the lint gate
(``repro.lint.mode`` — :func:`~repro.engine.runner.lint_at_submit` runs
at every stage's submit, exactly as for a standalone job).

Datasets cross stage boundaries through a
:class:`~repro.dag.store.DfsDatasetStore`; before running, each stage's
cache key is derived from the stored input block digests, the job's
user-code source digest, and its semantic configuration
(:mod:`repro.dag.cache`) — a hit restores the stage's dataset without
running anything, counted in
:attr:`~repro.engine.counters.Counter.PIPELINE_CACHE_HITS`.

A failed stage does not abort the run: stages transitively downstream
of the failure are marked :attr:`~repro.dag.result.StageStatus.SKIPPED`
with the causal error attached, while independent branches keep
executing.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from ..config import JobConf, Keys
from ..engine.counters import Counter, Counters
from ..engine.instrumentation import Ledger
from ..engine.job import JobSpec, semantic_conf_items
from ..engine.runner import JobResult, LocalJobRunner
from .cache import (
    CacheEntry,
    DiskStageCache,
    MemoryStageCache,
    StageCache,
    single_flight_for,
    stage_cache_key,
)
from .pipeline import Pipeline
from .result import PipelineResult, StageResult, StageStatus
from .stage import IterativeStage, JobStage, SourceStage, Stage, StageContext
from .store import DfsDatasetStore

if TYPE_CHECKING:  # pragma: no cover - stream builds on dag; typing only
    from ..stream.manifest import SplitManifest

#: Scheduler width: how many ready stages run at once.
MAX_CONCURRENT_STAGES = 4
#: The iterative driver's cap when an ``IterativeStage`` sets none.
MAX_ITERATIONS = 100


@dataclass
class _StageOutcome:
    """A worker thread's complete report: the public result plus the
    accounting merged across every job run the stage performed."""

    result: StageResult
    ledger: Ledger | None = None
    counters: Counters | None = None
    output: bytes | None = None


class PipelineRunner:
    """Runs pipelines on the existing engine, one job per stage.

    Parameters
    ----------
    conf:
        Pipeline-level configuration (``repro.pipeline.*`` plus the DFS
        keys backing dataset handoff).
    stage_conf:
        Overrides overlaid onto every stage's built job — how the CLI's
        ``--backend`` / ``--shuffle`` / ``--lint`` flags reach each
        stage.  Overlaid *before* cache-key derivation, so semantic
        overrides (e.g. reducer count) correctly invalidate.
    cache:
        Explicit result store.  Default: a :class:`DiskStageCache` when
        ``repro.pipeline.cache.dir`` is set, else a process-local
        :class:`MemoryStageCache`.  Reuse one runner (or one cache)
        across runs to observe hits.
    """

    def __init__(
        self,
        conf: JobConf | None = None,
        stage_conf: Mapping[str, Any] | None = None,
        cache: StageCache | None = None,
        manifest: "SplitManifest | None" = None,
    ) -> None:
        self.conf = conf or JobConf()
        self.stage_conf = dict(stage_conf or {})
        self.cache_enabled = self.conf.get_bool(Keys.PIPELINE_CACHE)
        if cache is not None:
            self.cache: StageCache = cache
        else:
            cache_dir = self.conf.get_str(Keys.PIPELINE_CACHE_DIR)
            self.cache = DiskStageCache(cache_dir) if cache_dir else MemoryStageCache()
        if manifest is None and self.conf.get_bool(Keys.STREAM_DELTA):
            state_dir = self.conf.get_str(Keys.STREAM_STATE_DIR)
            if state_dir:
                import os

                from ..stream.manifest import SplitManifest

                manifest = SplitManifest(os.path.join(state_dir, "manifest"))
        #: When set, stage-cache misses on job stages attempt a
        #: split-level delta recompute against this manifest instead of
        #: a plain full run (:func:`repro.stream.delta.delta_run_job`).
        self.manifest = manifest
        #: Split content keys touched by delta runs (all batches of this
        #: runner's lifetime) — the driver's raw material for manifest GC.
        self.manifest_keys_used: set[str] = set()

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------
    def run(self, pipeline: Pipeline) -> PipelineResult:
        # Installed for the whole pipeline so dfs-site faults cover the
        # dataset handoff reads the *scheduler* performs (digesting and
        # rendering stage outputs), not just reads inside stage jobs —
        # the per-stage executors install the same plan and share the
        # injector (installation dedupes equal plans).
        from ..faults.plan import FaultPlan
        from ..faults.runtime import installed

        with installed(FaultPlan.from_conf(JobConf(self.stage_conf))):
            return self._run(pipeline)

    def _run(self, pipeline: Pipeline) -> PipelineResult:
        pipeline.validate()
        started = time.perf_counter()
        store = DfsDatasetStore(
            pipeline.name,
            replication=self.conf.get_positive_int(Keys.DFS_REPLICATION),
        )
        producer = {s.output: s.name for s in pipeline}
        waiting: dict[str, set[str]] = {
            s.name: {producer[d] for d in s.inputs} for s in pipeline
        }
        outcomes: dict[str, _StageOutcome] = {}
        running: dict[Future[_StageOutcome], str] = {}
        with ThreadPoolExecutor(
            max_workers=MAX_CONCURRENT_STAGES, thread_name_prefix=f"dag-{pipeline.name}"
        ) as pool:
            while waiting or running:
                ready = [
                    name for name, deps in waiting.items()
                    if all(
                        d in outcomes
                        and outcomes[d].result.status is StageStatus.DONE
                        for d in deps
                    )
                ]
                for name in ready:
                    del waiting[name]
                    running[pool.submit(self._execute, pipeline.stage(name), store)] = name
                if not running:
                    break  # everything left is blocked on failures handled below
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    name = running.pop(future)
                    outcome = future.result()  # _execute never raises
                    outcomes[name] = outcome
                    if outcome.result.status is StageStatus.FAILED:
                        self._skip_downstream(pipeline, name, outcome, waiting, outcomes)

        return self._assemble(pipeline, outcomes, time.perf_counter() - started, store)

    def _skip_downstream(
        self,
        pipeline: Pipeline,
        failed: str,
        failure: _StageOutcome,
        waiting: dict[str, set[str]],
        outcomes: dict[str, _StageOutcome],
    ) -> None:
        """Mark every pending transitive consumer of *failed* as SKIPPED,
        carrying the causal error (first failure wins on diamonds)."""
        for name in pipeline.downstream_of(failed):
            if name in waiting:
                del waiting[name]
                outcomes[name] = _StageOutcome(
                    StageResult(
                        stage=name,
                        status=StageStatus.SKIPPED,
                        error=failure.result.error,
                        cause=failed,
                    )
                )

    def _assemble(
        self,
        pipeline: Pipeline,
        outcomes: dict[str, _StageOutcome],
        seconds: float,
        store: DfsDatasetStore | None = None,
    ) -> PipelineResult:
        result = PipelineResult(pipeline=pipeline.name, seconds=seconds)
        if store is not None:
            # Dataset-handoff reads that survived a corrupt replica by
            # failing over (digest verification caught the rot).
            result.counters.incr(Counter.DFS_READ_FAILOVERS, store.read_failovers)
        for stage in pipeline.topological_order():
            outcome = outcomes[stage.name]
            stage_result = outcome.result
            result.stages.append(stage_result)
            status_counter = {
                StageStatus.DONE: Counter.PIPELINE_STAGES_DONE,
                StageStatus.FAILED: Counter.PIPELINE_STAGES_FAILED,
                StageStatus.SKIPPED: Counter.PIPELINE_STAGES_SKIPPED,
            }[stage_result.status]
            result.counters.incr(status_counter)
            if stage_result.status is StageStatus.DONE:
                # Three-way cache accounting: a full hit ran nothing, a
                # delta run recomputed only changed splits, a miss ran
                # everything — delta runs must not inflate the miss count.
                if stage_result.cache_hit:
                    result.counters.incr(Counter.PIPELINE_CACHE_HITS)
                elif stage_result.cache_delta:
                    result.counters.incr(Counter.PIPELINE_CACHE_DELTA)
                else:
                    result.counters.incr(Counter.PIPELINE_CACHE_MISSES)
                result.counters.incr(
                    Counter.PIPELINE_HANDOFF_BYTES, stage_result.output_bytes
                )
                result.counters.incr(
                    Counter.PIPELINE_ITERATIONS, stage_result.iterations
                )
                result.ledger.add_sample("pipeline.stage_seconds", stage_result.seconds)
                if outcome.output is not None:
                    result.datasets[stage.output] = outcome.output
            if outcome.ledger is not None:
                result.ledger.merge(outcome.ledger)
            if outcome.counters is not None:
                result.counters.merge(outcome.counters)
        return result

    # ------------------------------------------------------------------
    # stage execution (worker threads)
    # ------------------------------------------------------------------
    def _execute(self, stage: Stage, store: DfsDatasetStore) -> _StageOutcome:
        started = time.perf_counter()
        try:
            inputs = {name: store.get(name) for name in stage.inputs}
            digests = {name: store.block_digests(name) for name in stage.inputs}
            if isinstance(stage, SourceStage):
                outcome = self._run_source(stage, digests, store)
            elif isinstance(stage, IterativeStage):
                outcome = self._run_iterative(stage, inputs, digests, store)
            elif isinstance(stage, JobStage):
                outcome = self._run_job(stage, inputs, digests, store)
            else:
                raise TypeError(f"unknown stage kind: {type(stage).__name__}")
        except Exception as exc:  # noqa: BLE001 - a stage failure must be
            # contained as a FAILED result so sibling branches keep running
            # and downstream stages get the causal error; PipelineResult
            # re-raises on demand.
            return _StageOutcome(
                StageResult(
                    stage=stage.name,
                    status=StageStatus.FAILED,
                    seconds=time.perf_counter() - started,
                    error=exc,
                )
            )
        outcome.result.seconds = time.perf_counter() - started
        return outcome

    def _compute_once(
        self,
        stage: Stage,
        key: str,
        store: DfsDatasetStore,
        compute,
    ) -> _StageOutcome:
        """Cache lookup with in-flight execution dedup.

        Concurrent executions of the same key against the same cache
        (fan-out stages in one run, or identical pipelines run from
        several threads) elect one *leader* via the cache's
        :class:`~repro.dag.cache.SingleFlight` table; waiters block, then
        take the leader's committed entry as an ordinary cache hit.  A
        failed leader commits nothing, so the first waiter to re-check
        becomes the new leader and the failure never cascades to runs
        that could still succeed.
        """
        if not self.cache_enabled:
            return compute()
        flight = single_flight_for(self.cache)
        while True:
            hit = self._lookup(stage, key, store)
            if hit is not None:
                return hit
            if flight.begin(key):
                try:
                    return compute()
                finally:
                    flight.done(key)

    def _lookup(
        self, stage: Stage, key: str, store: DfsDatasetStore
    ) -> _StageOutcome | None:
        if not self.cache_enabled:
            return None
        entry = self.cache.get(key)
        if entry is None:
            return None
        store.put(stage.output, entry.output)
        return _StageOutcome(
            StageResult(
                stage=stage.name,
                status=StageStatus.DONE,
                cache_hit=True,
                output_bytes=len(entry.output),
                output_digest=entry.output_digest,
                job_id=entry.job_id,
                iterations=entry.iterations,
                converged=entry.converged,
            ),
            output=entry.output,
        )

    def _commit(
        self,
        stage: Stage,
        key: str,
        data: bytes,
        store: DfsDatasetStore,
        job_id: str = "",
        iterations: int = 0,
        converged: bool | None = None,
    ) -> CacheEntry:
        entry = CacheEntry(
            output=data,
            output_digest=hashlib.sha256(data).hexdigest(),
            job_id=job_id,
            iterations=iterations,
            converged=converged,
        )
        store.put(stage.output, data)
        if self.cache_enabled:
            self.cache.put(key, entry)
        return entry

    def _context(self, inputs: dict[str, bytes], iteration: int = 0) -> StageContext:
        return StageContext(
            inputs=inputs, conf=JobConf(self.stage_conf), iteration=iteration
        )

    def _build_job(self, stage: JobStage, ctx: StageContext) -> JobSpec:
        job = stage.build(ctx)
        job.conf.update(self.stage_conf)
        return job

    def _run_source(
        self,
        stage: SourceStage,
        digests: dict[str, tuple[str, ...]],
        store: DfsDatasetStore,
    ) -> _StageOutcome:
        key = stage_cache_key("source", digests, stage.source_digest_parts())

        def compute() -> _StageOutcome:
            data = stage.generate()
            entry = self._commit(stage, key, data, store)
            return _StageOutcome(
                StageResult(
                    stage=stage.name,
                    status=StageStatus.DONE,
                    output_bytes=len(data),
                    output_digest=entry.output_digest,
                ),
                output=data,
            )

        return self._compute_once(stage, key, store, compute)

    def _run_job(
        self,
        stage: JobStage,
        inputs: dict[str, bytes],
        digests: dict[str, tuple[str, ...]],
        store: DfsDatasetStore,
    ) -> _StageOutcome:
        job = self._build_job(stage, self._context(inputs))
        key = stage_cache_key(
            "job",
            digests,
            stage.source_digest_parts() + [job.source_digest()],
            semantic_conf_items(job.conf),
        )
        def compute() -> _StageOutcome:
            delta = False
            splits_reused = 0
            splits_recomputed = 0
            delta_reason = ""
            if self.manifest is not None:
                from ..stream.delta import delta_run_job

                outcome = delta_run_job(job, self.manifest)
                job_result = outcome.result
                self.manifest_keys_used.update(outcome.split_keys)
                delta = outcome.eligible and outcome.reused > 0
                splits_reused = outcome.reused
                splits_recomputed = outcome.recomputed
                delta_reason = outcome.reason
            else:
                job_result = LocalJobRunner().run(job)
            data = stage.render(job_result)
            entry = self._commit(stage, key, data, store, job_id=job_result.job_id)
            return _StageOutcome(
                StageResult(
                    stage=stage.name,
                    status=StageStatus.DONE,
                    cache_delta=delta,
                    splits_reused=splits_reused,
                    splits_recomputed=splits_recomputed,
                    delta_reason=delta_reason,
                    output_bytes=len(data),
                    output_digest=entry.output_digest,
                    job_id=job_result.job_id,
                    job_result=job_result,
                ),
                ledger=job_result.ledger,
                counters=job_result.counters,
                output=data,
            )

        return self._compute_once(stage, key, store, compute)

    def _run_iterative(
        self,
        stage: IterativeStage,
        inputs: dict[str, bytes],
        digests: dict[str, tuple[str, ...]],
        store: DfsDatasetStore,
    ) -> _StageOutcome:
        max_iterations = stage.max_iterations or MAX_ITERATIONS
        state = inputs[stage.state_input]
        job = self._build_job(stage, self._context(inputs))
        # The whole fixpoint run is one cacheable unit, keyed on the
        # *initial* state: same start + same code + same conf reach the
        # same fixpoint, so a warm rerun skips every iteration at once.
        key = stage_cache_key(
            "iterative",
            digests,
            stage.source_digest_parts() + [job.source_digest()],
            semantic_conf_items(job.conf),
        )
        def compute() -> _StageOutcome:
            ledger = Ledger()
            counters = Counters()
            converged = False
            iterations = 0
            current = state
            current_job = job
            job_result: JobResult | None = None
            while iterations < max_iterations:
                job_result = LocalJobRunner().run(current_job)
                ledger.merge(job_result.ledger)
                counters.merge(job_result.counters)
                new_state = stage.render(job_result)
                iterations += 1
                if stage.converged(current, new_state, iterations):
                    current = new_state
                    converged = True
                    break
                current = new_state
                current_job = self._build_job(
                    stage,
                    self._context({**inputs, stage.state_input: current}, iterations),
                )
            entry = self._commit(
                stage, key, current,
                store,
                job_id=job_result.job_id if job_result else "",
                iterations=iterations,
                converged=converged,
            )
            return _StageOutcome(
                StageResult(
                    stage=stage.name,
                    status=StageStatus.DONE,
                    output_bytes=len(current),
                    output_digest=entry.output_digest,
                    job_id=job_result.job_id if job_result else "",
                    iterations=iterations,
                    converged=converged,
                    job_result=job_result,
                ),
                ledger=ledger,
                counters=counters,
                output=current,
            )

        return self._compute_once(stage, key, store, compute)


def run_pipeline(
    pipeline: Pipeline,
    conf: JobConf | None = None,
    stage_conf: Mapping[str, Any] | None = None,
    cache: StageCache | None = None,
) -> PipelineResult:
    """One-shot convenience: build a runner, run, return the result."""
    return PipelineRunner(conf=conf, stage_conf=stage_conf, cache=cache).run(pipeline)
