"""Map task execution.

A :class:`MapTaskRunner` drives one input split through the full
map-side pipeline: read + deserialize input records, run the user's
``map()``, hand emits to the task's collector (standard or
frequency-buffering), and flush — which performs the final merge and
yields the task's map-output file.

All work is charged to the task's ledger as it happens; the collector's
:class:`~repro.engine.pipeline.PipelineTimeline` captures the map/support
thread interleaving for Table II / Figure 9.

The per-record read loop is *fused*: the READ and MAP charges (what
``TaskInstruments.charge_map_thread`` does) and the input counters
(what ``Counters.incr`` does) are made in the loop's own frame, per
record and in the order the method calls made them.  None may be
deferred: a spill inside ``map()`` reads the map-thread meter for its
produce work ``T_p``, so the READ charge lands before ``map()`` and the
MAP charge right after it.  The progress hint goes only to a collector
that overrides the base no-op (the frequency buffer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ReproError, UserCodeError
from ..io.blockdisk import LocalDisk
from ..io.linereader import FileSplit
from ..io.spillfile import SpillIndex
from .collector import MapOutputCollector
from .counters import Counter, Counters
from .instrumentation import Ledger, Op, TaskInstruments
from .job import JobSpec
from .pipeline import PipelineResult

_READ, _MAP = Op.READ, Op.MAP
_INPUT_RECORDS, _INPUT_BYTES = Counter.MAP_INPUT_RECORDS, Counter.MAP_INPUT_BYTES


@dataclass
class MapTaskResult:
    """Everything a finished map task leaves behind."""

    task_id: str
    split: FileSplit
    output_index: SpillIndex
    disk: LocalDisk
    ledger: Ledger
    counters: Counters
    pipeline: PipelineResult
    host: str | None = None
    wall_seconds: float = 0.0  # measured wall-clock duration of the attempt
    #: Where this output's shuffle server listens (host, port), set by the
    #: executor when ``repro.shuffle.mode = net``; reducers fetch from it.
    serve_address: tuple[str, int] | None = None

    def partition_bytes(self, partition: int) -> int:
        return self.output_index.entry(partition).length

    @property
    def duration_work(self) -> float:
        """Modelled wall-work of this task on one node.

        The spill pipeline's two threads overlap, so their window counts
        once (``pipeline.elapsed``, which already includes both threads'
        waits); everything charged outside the pipeline — the final
        merge, plus any unspilled map-thread tail — is serial and adds
        on top.  Dividing by a node's speed gives modelled seconds.
        """
        serial_tail = (
            self.ledger.total() - self.pipeline.map_busy - self.pipeline.support_busy
        )
        return self.pipeline.elapsed + max(0.0, serial_tail)

    @property
    def output_bytes(self) -> int:
        return self.output_index.total_bytes

    @property
    def output_records(self) -> int:
        return self.output_index.total_records


class MapTaskRunner:
    """Runs one map task over one split."""

    def __init__(
        self,
        job: JobSpec,
        split: FileSplit,
        task_id: str,
        disk: LocalDisk,
        collector: MapOutputCollector,
        instruments: TaskInstruments,
        counters: Counters,
        host: str | None = None,
    ) -> None:
        self.job = job
        self.split = split
        self.task_id = task_id
        self.disk = disk
        self.collector = collector
        self.instruments = instruments
        self.counters = counters
        self.host = host

    def run(self) -> MapTaskResult:
        start = time.perf_counter()
        result = self._run_task()
        result.wall_seconds = time.perf_counter() - start
        return result

    def _run_task(self) -> MapTaskResult:
        job = self.job
        model = job.cost_model
        costs = job.user_costs
        instruments = self.instruments
        counters = self.counters

        mapper = job.mapper_factory()
        emit = self.collector.collect

        try:
            mapper.setup()
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("map", f"setup failed: {exc}") from exc

        # Fused charges (module docstring): per record, in order, and a
        # zero amount skipped as charge_map_thread and incr skip it.
        read_byte = model.read_byte
        deserialize_record = model.deserialize_record
        map_record, map_byte = costs.map_record, costs.map_byte
        work = instruments.ledger.work
        counts = counters.values
        mapper_map = mapper.map
        # Only a collector that overrides the no-op hint (the frequency
        # buffer times its profiling stage by it) is told the progress.
        progress = (
            self.collector.note_input_progress
            if type(self.collector).note_input_progress
            is not MapOutputCollector.note_input_progress
            else None
        )
        split_length = max(1, self.split.length)
        consumed_total = 0
        for key, value, consumed in job.input_format.record_reader(self.split):
            amount = read_byte * consumed + deserialize_record
            if amount:
                work[_READ] = work.get(_READ, 0.0) + amount
                instruments.map_thread_work += amount
            counts[_INPUT_RECORDS] = counts.get(_INPUT_RECORDS, 0) + 1
            if consumed:
                counts[_INPUT_BYTES] = counts.get(_INPUT_BYTES, 0) + consumed
            consumed_total += consumed
            if progress is not None:
                progress(min(1.0, consumed_total / split_length))
            try:
                mapper_map(key, value, emit)
            except ReproError:  # a framework error inside emit keeps its type
                raise
            except Exception as exc:  # noqa: BLE001 - user code boundary
                raise UserCodeError("map", str(exc)) from exc
            amount = map_record + map_byte * consumed
            if amount:
                work[_MAP] = work.get(_MAP, 0.0) + amount
                instruments.map_thread_work += amount

        try:
            mapper.cleanup(emit)
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("map", f"cleanup failed: {exc}") from exc

        output_index = self.collector.flush()
        counters.incr(Counter.MAP_FINAL_OUTPUT_RECORDS, output_index.total_records)
        counters.incr(Counter.MAP_FINAL_OUTPUT_BYTES, output_index.total_bytes)

        pipeline = getattr(self.collector, "timeline", None)
        pipeline_result = pipeline.finish() if pipeline is not None else PipelineResult()

        return MapTaskResult(
            task_id=self.task_id,
            split=self.split,
            output_index=output_index,
            disk=self.disk,
            ledger=instruments.ledger,
            counters=counters,
            pipeline=pipeline_result,
            host=self.host,
        )
