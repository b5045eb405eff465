"""The micro-batch streaming driver.

A :class:`StreamDriver` tails one append-only input file and turns it
into a sequence of pipeline runs.  Each poll tick compares the file's
size against the bytes already processed; once at least
``repro.stream.min.batch.bytes`` of new input accumulated, the driver
snapshots the file and runs the pipeline over the whole snapshot.  The
snapshot's unchanged prefix is where the delta machinery earns its
keep: per-stage content caching absorbs stages whose inputs did not
change at all, and the split manifest absorbs the unchanged *splits* of
stages whose input grew — only map tasks for new/changed splits run.

After a fully successful batch the driver publishes every sink dataset
(outputs no stage consumes) as the next monotonic version — staged and
atomically promoted both through the run's
:class:`~repro.dag.store.DfsDatasetStore` and the durable on-disk
:class:`~repro.stream.publish.VersionedPublisher` — then retires
versions beyond the retention window and records its progress in
``driver.json``.  A failed batch publishes nothing and halts the
driver: the previously promoted versions stay visible, and a restarted
driver recovers the batch counter, processed-bytes watermark, split
manifest, and stage cache from the state directory and simply re-runs
the batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

from ..config import JobConf, Keys
from ..dag.cache import DiskStageCache
from ..dag.pipeline import Pipeline
from ..dag.result import PipelineResult
from ..dag.scheduler import PipelineRunner
from ..dag.stage import SourceStage
from ..dag.store import DfsDatasetStore
from ..engine.counters import Counter, Counters
from ..errors import PipelineError
from .manifest import SplitManifest
from .publish import VersionedPublisher

__all__ = [
    "BatchRecord",
    "StreamDriver",
    "StreamReport",
    "pipeline_sinks",
    "snapshot_source",
]


def pipeline_sinks(pipeline: Pipeline) -> list[str]:
    """Datasets the pipeline produces but no stage consumes — what the
    driver publishes."""
    consumed = {name for stage in pipeline for name in stage.inputs}
    return [stage.output for stage in pipeline if stage.output not in consumed]


def snapshot_source(name: str, data: bytes, output: str | None = None) -> SourceStage:
    """A source stage materializing one input snapshot.  The snapshot's
    content hash is the stage's cache parameter, so every distinct
    snapshot keys (and invalidates) downstream stages correctly."""
    digest = hashlib.sha256(data).hexdigest()
    return SourceStage(
        name,
        generate=lambda data=data: data,
        params=f"sha256:{digest}",
        output=output,
    )


@dataclass
class BatchRecord:
    """One micro-batch: what ran, what it reused, what it published."""

    batch: int
    input_bytes: int
    appended_bytes: int
    seconds: float = 0.0
    ok: bool = False
    splits_reused: int = 0
    splits_recomputed: int = 0
    stages_hit: int = 0
    stages_delta: int = 0
    stages_miss: int = 0
    published: dict[str, int] = field(default_factory=dict)  # dataset -> version
    versions_retired: int = 0
    error: str = ""

    def as_dict(self) -> dict:
        return {
            "batch": self.batch,
            "input_bytes": self.input_bytes,
            "appended_bytes": self.appended_bytes,
            "seconds": round(self.seconds, 6),
            "ok": self.ok,
            "splits_reused": self.splits_reused,
            "splits_recomputed": self.splits_recomputed,
            "stages_hit": self.stages_hit,
            "stages_delta": self.stages_delta,
            "stages_miss": self.stages_miss,
            "published": dict(self.published),
            "versions_retired": self.versions_retired,
            "error": self.error,
        }


@dataclass
class StreamReport:
    """The outcome of one driver invocation (possibly many batches)."""

    pipeline: str
    batches: list[BatchRecord] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.batches)

    def as_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "ok": self.ok,
            "seconds": round(self.seconds, 6),
            "batches": [record.as_dict() for record in self.batches],
            "counters": self.counters.as_dict(),
        }


class StreamDriver:
    """Polls an append-only input file and runs micro-batches over it.

    Parameters
    ----------
    name:
        Stream name; namespaces the published datasets' DFS paths.
    build:
        ``(snapshot: bytes) -> Pipeline`` — builds the pipeline for one
        batch.  The returned pipeline's source stage must materialize
        exactly the snapshot (and key its cache entry on the snapshot's
        content), which :func:`snapshot_source` arranges.
    input_path:
        The tailed file.  Truncation resets the watermark and the whole
        file reprocesses.
    conf:
        ``repro.stream.*`` cadence/retention keys plus the pipeline-level
        configuration (``repro.pipeline.*``, DFS keys).
        ``repro.stream.state.dir`` is required: it holds the split
        manifest, the on-disk stage cache, the published versions, and
        ``driver.json`` (batch counter + processed-bytes watermark).
    stage_conf:
        Overrides overlaid onto every stage job (backend, shuffle, ...).
    """

    STATE_FILE = "driver.json"

    def __init__(
        self,
        name: str,
        build: Callable[[bytes], Pipeline],
        input_path: str,
        conf: JobConf | None = None,
        stage_conf: dict | None = None,
    ) -> None:
        self.name = name
        self.build = build
        self.input_path = input_path
        self.conf = conf or JobConf()
        self.stage_conf = dict(stage_conf or {})
        self.state_dir = self.conf.get_str(Keys.STREAM_STATE_DIR)
        if not self.state_dir:
            raise PipelineError(
                f"the streaming driver needs {Keys.STREAM_STATE_DIR} set"
            )
        os.makedirs(self.state_dir, exist_ok=True)
        # Make sure every layer below (scheduler manifest discovery
        # included) sees the same state directory.
        self.conf.set(Keys.STREAM_STATE_DIR, self.state_dir)
        self.publisher = VersionedPublisher(os.path.join(self.state_dir, "published"))
        self.manifest: SplitManifest | None = None
        if self.conf.get_bool(Keys.STREAM_DELTA):
            self.manifest = SplitManifest(os.path.join(self.state_dir, "manifest"))
        self.runner = PipelineRunner(
            conf=self.conf,
            stage_conf=self.stage_conf,
            cache=DiskStageCache(os.path.join(self.state_dir, "stage-cache")),
            manifest=self.manifest,
        )
        self.store = DfsDatasetStore(
            f"{name}.stream",
            replication=self.conf.get_positive_int(Keys.DFS_REPLICATION),
        )
        self.batch, self.processed_bytes = self._load_state()

    # ------------------------------------------------------------------
    # durable driver state
    # ------------------------------------------------------------------
    def _state_path(self) -> str:
        return os.path.join(self.state_dir, self.STATE_FILE)

    def _load_state(self) -> tuple[int, int]:
        try:
            with open(self._state_path(), "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            return int(raw["batch"]), int(raw["processed_bytes"])
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return 0, 0

    def _save_state(self) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.state_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {"batch": self.batch, "processed_bytes": self.processed_bytes},
                    handle,
                )
            os.replace(tmp, self._state_path())
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _input_size(self) -> int:
        try:
            return os.path.getsize(self.input_path)
        except OSError:
            return 0

    def run(self) -> StreamReport:
        """Poll until the idle timeout (or the batch cap) and return the
        per-batch report.  A failed batch halts the loop immediately —
        nothing was published for it."""
        started = time.perf_counter()
        report = StreamReport(pipeline=self.name)
        poll = self.conf.get_float(Keys.STREAM_POLL_INTERVAL)
        min_bytes = self.conf.get_positive_int(Keys.STREAM_MIN_BATCH_BYTES)
        max_batches = self.conf.get_int(Keys.STREAM_MAX_BATCHES)
        idle_timeout = self.conf.get_float(Keys.STREAM_IDLE_TIMEOUT)
        ran = 0
        last_progress = time.monotonic()
        while True:
            size = self._input_size()
            if size < self.processed_bytes:
                # Truncated under us: the watermark is meaningless now.
                self.processed_bytes = 0
            appended = size - self.processed_bytes
            if size > 0 and (self.processed_bytes == 0 or appended >= min_bytes):
                record = self._run_batch(size, appended)
                report.batches.append(record)
                if not record.ok:
                    break
                ran += 1
                last_progress = time.monotonic()
                if max_batches and ran >= max_batches:
                    break
                continue
            if idle_timeout and time.monotonic() - last_progress >= idle_timeout:
                break
            time.sleep(poll)
        for record in report.batches:
            report.counters.incr(Counter.STREAM_SPLITS_REUSED, record.splits_reused)
            report.counters.incr(
                Counter.STREAM_SPLITS_RECOMPUTED, record.splits_recomputed
            )
            if record.ok:
                report.counters.incr(Counter.STREAM_BATCHES)
                report.counters.incr(
                    Counter.STREAM_VERSIONS_PUBLISHED, len(record.published)
                )
                report.counters.incr(
                    Counter.STREAM_VERSIONS_RETIRED, record.versions_retired
                )
        report.seconds = time.perf_counter() - started
        return report

    def _run_batch(self, size: int, appended: int) -> BatchRecord:
        with open(self.input_path, "rb") as handle:
            data = handle.read(size)  # snapshot: growth past `size` waits
        record = BatchRecord(
            batch=self.batch + 1, input_bytes=size, appended_bytes=appended
        )
        batch_started = time.perf_counter()
        pipeline = self.build(data)
        try:
            result = self.runner.run(pipeline)
        except Exception as exc:  # noqa: BLE001 - a batch failure must not
            # tear down the driver state; the record carries the cause.
            record.seconds = time.perf_counter() - batch_started
            record.error = f"{type(exc).__name__}: {exc}"
            return record
        record.seconds = time.perf_counter() - batch_started
        self._account(record, result)
        if not result.ok:
            failed = result.failed
            record.error = str(failed[0].error) if failed else "stage failure"
            return record

        # Publish only after the whole batch succeeded: version = the new
        # batch id, staged then atomically promoted, mirrored durably.
        self.batch += 1
        retain = self.conf.get_positive_int(Keys.STREAM_RETAIN_VERSIONS)
        for dataset in pipeline_sinks(pipeline):
            output = result.output(dataset)
            self.store.put_version(dataset, self.batch, output)
            self.store.promote(dataset, self.batch)
            self.store.retain(dataset, retain)
            self.publisher.publish(dataset, self.batch, output)
            record.versions_retired += self.publisher.retain(dataset, retain)
            record.published[dataset] = self.batch
        self.processed_bytes = size
        self._save_state()
        record.ok = True
        return record

    def _account(self, record: BatchRecord, result: PipelineResult) -> None:
        record.splits_reused = result.counters.get(Counter.STREAM_SPLITS_REUSED)
        record.splits_recomputed = result.counters.get(
            Counter.STREAM_SPLITS_RECOMPUTED
        )
        record.stages_hit = result.counters.get(Counter.PIPELINE_CACHE_HITS)
        record.stages_delta = result.counters.get(Counter.PIPELINE_CACHE_DELTA)
        record.stages_miss = result.counters.get(Counter.PIPELINE_CACHE_MISSES)
