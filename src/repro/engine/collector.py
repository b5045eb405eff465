"""Map-output collectors: the standard spill path.

A *collector* receives the (key, value) pairs the user's ``map()``
emits and is responsible for everything between ``map()`` and the final
map-output file.  :class:`StandardCollector` reproduces Hadoop's
``MapOutputBuffer`` dataflow:

    serialize -> partition -> buffer -> [threshold] -> sort -> combine
    -> spill to disk -> ... -> final merge of all spills

Every spill runs through the one inline cycle *drain -> consume ->
settle -> observe* here, with the two threads of Hadoop's spill
pipeline modelled in work units
(:class:`~repro.engine.pipeline.PipelineTimeline`); the per-spill
combine and every end-of-map merge pass share :func:`combine_runs`
(a proven int fold: one pass a run).  Frequency buffering wraps this class
(:mod:`repro.core.freqbuf.collector`); spill-matcher plugs in as the
:class:`~repro.engine.spillpolicy.SpillPolicy`.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from itertools import chain
from typing import Iterable

from ..errors import SpillBufferError
from ..io.blockdisk import LocalDisk
from ..io.merger import MergeStats, group_sorted, merge_runs
from ..io.spillfile import SpillIndex, read_segment, write_spill
from ..serde.numeric import int_reader
from ..serde.writable import SerdePair, Writable
from .api import HashPartitioner, Partitioner
from .binarybuffer import (
    RECORD_METADATA_BYTES,
    BinarySpill,
    BinarySpillBuffer,
    oversized_record_message,
)
from .combiner import END_OF_RUN, FOLD_OPS, CombinerRunner, wrap_folded
from .costmodel import CostModel
from .counters import Counter, Counters
from .instrumentation import Op, TaskInstruments
from .pipeline import PipelineTimeline
from .spillpolicy import SpillPolicy


class MapOutputCollector(ABC):
    """Sink for user map() output; owns the path to the final map file."""

    @abstractmethod
    def collect(self, key: Writable, value: Writable) -> None:
        """Accept one emitted record."""

    @abstractmethod
    def flush(self) -> "SpillIndex":
        """End of input: drain buffers, merge spills, return the final
        map-output index (one sorted segment per reduce partition).  The
        final output is the only file left on the task's disk."""

    def note_input_progress(self, fraction: float) -> None:
        """Hint from the task runner: *fraction* of the split's input has
        been consumed.  The frequency-buffering collector uses this to
        time its profiling stage (the paper's sampling fraction ``s`` is
        a percentage of the map task's input records); the standard
        collector ignores it."""


#: Bound on the collector's key→partition memo.  Text keys are Zipfian
#: (the paper's premise), so a modest cap catches nearly every lookup
#: while keeping worst-case memory bounded on high-cardinality key
#: spaces.
_PARTITION_MEMO_MAX = 1 << 16

_COMBINE_OP = Op.COMBINE

Runs = list[list[SerdePair]]


class StandardCollector(MapOutputCollector):
    """Hadoop's store-sort-combine-spill-merge dataflow, instrumented.

    :meth:`collect` appends serialized records straight to their
    partition's run in the spill buffer (:mod:`repro.engine.binarybuffer`),
    each run ordered at spill time by one stable sort and combined per
    sorted key group; EMIT and the ``MAP_OUTPUT_*`` counters are settled
    once per spill.
    """

    def __init__(
        self,
        *,
        task_id: str,
        disk: LocalDisk,
        num_partitions: int,
        partitioner: Partitioner,
        policy: SpillPolicy,
        capacity_bytes: int,
        cost_model: CostModel,
        instruments: TaskInstruments,
        counters: Counters,
        combiner_runner: CombinerRunner | None = None,
        exact_comparisons: bool = False,
        sort_factor: int = 10,
        codec=None,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.task_id = task_id
        self.disk = disk
        self.num_partitions = num_partitions
        self.partitioner = partitioner
        self.policy = policy
        self.cost_model = cost_model
        self.instruments = instruments
        self.counters = counters
        self.combiner_runner = combiner_runner
        self.exact_comparisons = exact_comparisons
        self.sort_factor = max(2, sort_factor)
        self.codec = codec  # optional spill/shuffle compression (§VII extension)

        self.buffer = BinarySpillBuffer(capacity_bytes, num_partitions)
        #: Records (and their payload bytes) buffered since the last
        #: settle that ``collect_serialized`` took uncounted.
        self._uncounted_records = self._uncounted_bytes = 0
        # EMIT is settled per spill but first charged with the first
        # record, ahead of MAP (Ledger.total sums in key order): hold its
        # place as the task ledger's first key; flush drops it if unused.
        instruments.ledger.work.setdefault(Op.EMIT, 0.0)
        self.timeline = PipelineTimeline(capacity_bytes)
        self.spill_indices: list[SpillIndex] = []
        self._spill_target = self.timeline.expected_next_size(policy.spill_percent(), None)
        #: A front stage that defers its map-thread charges (the
        #: frequency buffer) settles them here, before each spill reads
        #: the produce work.  Non-owning, so the front stage that wraps
        #: this collector is not kept alive by it.
        self.settle_front_stage: weakref.WeakMethod | None = None
        #: Map-thread work at the previous spill: ``T_p`` is the difference.
        self._produce_mark = instruments.map_thread_work
        # The stock partitioner's FNV loop is per key byte — by far the
        # most expensive per-record step — and a pure function of the
        # key, so a memo changes nothing.  A custom Partitioner is user
        # code and owns its own (key, n) -> partition semantics.
        # ``build_collector`` swaps in the node's memo, shared by the
        # job's map tasks on that node.
        self.partition_memo: dict[bytes, int] | None = (
            {} if type(self.partitioner) is HashPartitioner else None
        )
        self._flushed = False

    def collect(self, key: Writable, value: Writable) -> None:
        """Serialize, partition and buffer one record, in one frame.

        Per record only the map-thread meter moves (a spill reads it for
        ``T_p``); EMIT and ``MAP_OUTPUT_*`` are settled from the
        buffer's totals at each spill (:meth:`_settle_emit`).
        :meth:`collect_serialized` is this body for serialized records.
        """
        key_bytes = key.to_bytes()
        value_bytes = value.to_bytes()
        payload = len(key_bytes) + len(value_bytes)
        model = self.cost_model
        self.instruments.map_thread_work += model.serialize_byte * payload + model.collect_record

        memo = self.partition_memo
        if memo is None:
            partition = self.partitioner.partition(key_bytes, self.num_partitions)
        else:
            partition = memo.get(key_bytes, -1)
            if partition < 0:
                partition = self.partitioner.partition(key_bytes, self.num_partitions)
                if len(memo) < _PARTITION_MEMO_MAX:
                    memo[key_bytes] = partition

        buffer = self.buffer
        accounted = payload + RECORD_METADATA_BYTES
        capacity = buffer.capacity_bytes
        if accounted > capacity:
            # A record larger than the whole buffer can never be spilled;
            # fail before uselessly spilling everything already buffered,
            # and identify the record (a record merely larger than the
            # spill *threshold* falls through and cuts a clean
            # single-record spill below).
            raise SpillBufferError(
                oversized_record_message(partition, key_bytes, accounted, capacity)
            )
        if buffer._occupancy + accounted > capacity:
            # Hard capacity: spill whatever we have before appending.
            self._spill()
        buffer._runs[partition].append((key_bytes, value_bytes))
        buffer._arrival.append(partition)
        occupancy = buffer._occupancy = buffer._occupancy + accounted
        if occupancy >= self._spill_target:
            self._spill()

    def collect_serialized(
        self, key_bytes: bytes, value_bytes: bytes, count_output: bool = True
    ) -> None:
        """Accept an already-serialized record (:meth:`collect`'s body).

        The frequency buffer uses this to drain combined tuples into the
        standard path with ``count_output=False`` — those tuples were
        already counted as map output when the user emitted them, so
        they are tallied here for the settle to leave out.
        """
        payload = len(key_bytes) + len(value_bytes)
        if not count_output:
            self._uncounted_records += 1
            self._uncounted_bytes += payload
        model = self.cost_model
        self.instruments.map_thread_work += model.serialize_byte * payload + model.collect_record

        memo = self.partition_memo
        if memo is None:
            partition = self.partitioner.partition(key_bytes, self.num_partitions)
        else:
            partition = memo.get(key_bytes, -1)
            if partition < 0:
                partition = self.partitioner.partition(key_bytes, self.num_partitions)
                if len(memo) < _PARTITION_MEMO_MAX:
                    memo[key_bytes] = partition

        buffer = self.buffer
        accounted = payload + RECORD_METADATA_BYTES
        capacity = buffer.capacity_bytes
        if accounted > capacity:
            raise SpillBufferError(
                oversized_record_message(partition, key_bytes, accounted, capacity)
            )
        if buffer._occupancy + accounted > capacity:
            self._spill()
        buffer._runs[partition].append((key_bytes, value_bytes))
        buffer._arrival.append(partition)
        occupancy = buffer._occupancy = buffer._occupancy + accounted
        if occupancy >= self._spill_target:
            self._spill()

    def _settle_emit(self) -> None:
        """Charge EMIT and count ``MAP_OUTPUT_*`` for everything buffered
        since the last spill: the same totals a per-record charge would
        reach (exactly, under integer-valued constants)."""
        buffer = self.buffer
        records, payload = buffer.record_count, buffer.payload_bytes
        if records:
            model = self.cost_model
            work = self.instruments.ledger.work
            work[Op.EMIT] = work.get(Op.EMIT, 0.0) + (
                model.serialize_byte * payload + model.collect_record * records
            )
            self.counters.incr(Counter.MAP_OUTPUT_RECORDS, records - self._uncounted_records)
            self.counters.incr(Counter.MAP_OUTPUT_BYTES, payload - self._uncounted_bytes)
            self._uncounted_records = self._uncounted_bytes = 0

    def _spill(self) -> None:
        """One spill cycle, inline: the buffer drains, :meth:`_consume`
        writes the spill, a deferring front stage settles, and
        :meth:`_observe` feeds the policy."""
        self._settle_emit()
        buffer = self.buffer
        if buffer.is_empty:
            return
        size_bytes = buffer.occupancy_bytes  # before the drain resets it
        consume_work = self._consume(buffer.drain())
        # T_p: map-thread work since the previous spill, once a front
        # stage that defers its charges (the frequency buffer) settled.
        if self.settle_front_stage is not None:
            self.settle_front_stage()()
        mark, self._produce_mark = self._produce_mark, self.instruments.map_thread_work
        self._observe(self._produce_mark - mark, consume_work, size_bytes)

    def _consume(self, spill: BinarySpill) -> float:
        """Sort, combine and write one drained spill: the modelled
        support thread's job for one cycle; returns its consume work
        ``T_c``."""
        model, instruments, counters = self.cost_model, self.instruments, self.counters
        sort_stats = spill.sort_stats(self.exact_comparisons)
        consume_work = instruments.charge_support_thread(
            Op.SORT,
            model.sort_comparison * sort_stats.comparisons
            + model.sort_byte_move * sort_stats.bytes_moved,
        )
        partitions = spill.sorted_runs(self.num_partitions)
        if self.combiner_runner is not None:
            partitions, consume_work = combine_runs(self, partitions, consume_work)
        path = f"{self.task_id}.spill{len(self.spill_indices)}"
        index = write_spill(self.disk, path, partitions, codec=self.codec)
        spill_io_work = model.spill_write_byte * index.total_bytes
        if self.codec is not None:
            spill_io_work += model.compress_byte * index.total_raw_bytes
        consume_work += instruments.charge_support_thread(Op.SPILL_IO, spill_io_work)
        self.spill_indices.append(index)
        counters.incr(Counter.SPILLS)
        counters.incr(Counter.SPILLED_RECORDS, index.total_records)
        counters.incr(Counter.SPILLED_BYTES, index.total_bytes)
        return consume_work

    def _observe(self, produce_work: float, consume_work: float, size_bytes: int) -> None:
        """Feed one spill's ``T_p``/``T_c``/size to the timeline and the
        policy, and aim the next spill."""
        policy = self.policy
        self.timeline.record_spill(max(produce_work, 1e-9), max(consume_work, 1e-9), size_bytes)
        policy.observe(produce_work, consume_work, size_bytes)
        self._spill_target = self.timeline.expected_next_size(
            policy.spill_percent(), policy.produce_consume_ratio()
        )

    def flush(self) -> SpillIndex:
        if self._flushed:
            raise SpillBufferError("collector already flushed")
        self._flushed = True
        self._spill()
        self.timeline.finish()
        work = self.instruments.ledger.work
        if work.get(Op.EMIT) == 0.0:
            del work[Op.EMIT]

        if not self.spill_indices:
            # No output at all: write an empty final file.
            empty = [[] for _ in range(self.num_partitions)]
            return write_spill(self.disk, f"{self.task_id}.out", empty, codec=self.codec)
        if len(self.spill_indices) == 1:
            # Single spill: Hadoop promotes it to the final output without
            # another pass — no merge work to charge.
            return self.spill_indices[0]

        final = self._merge_spills(self.spill_indices)
        # As Hadoop's MapTask.mergeParts: once file.out is written, the
        # spills and intermediate merge outputs are garbage.
        for index in self.spill_indices:
            self.disk.delete(index.path)
        return final

    def _merge_spills(self, indices: list[SpillIndex]) -> SpillIndex:
        """Multi-pass k-way merge of spills into the final map output.

        With more spills than ``io.sort.factor`` Hadoop performs
        intermediate merge passes; we reproduce that so merge I/O scales
        the same way.
        """
        while len(indices) > self.sort_factor:
            batch, indices = indices[: self.sort_factor], indices[self.sort_factor :]
            merged = self._merge_batch(batch, f"{self.task_id}.m{len(self.spill_indices)}")
            self.spill_indices.append(merged)
            indices.append(merged)

        return self._merge_batch(indices, f"{self.task_id}.out")

    def _merge_batch(self, indices: list[SpillIndex], out_path: str) -> SpillIndex:
        model = self.cost_model
        # merge_runs adds each partition's input side to *stats*; each
        # merged partition is combined (:func:`combine_runs`, the
        # per-spill loop) before the next one is merged.
        stats = MergeStats()
        merged = (
            merge_runs([read_segment(self.disk, index, partition) for index in indices], stats)
            for partition in range(self.num_partitions)
        )
        if self.combiner_runner is None:
            partitions = list(merged)
        else:
            partitions, _ = combine_runs(self, merged)

        final = write_spill(self.disk, out_path, partitions, codec=self.codec)
        merge_work = (
            model.spill_read_byte * sum(i.total_bytes for i in indices)
            + model.merge_comparison * stats.comparisons
            + model.merge_byte * (stats.bytes_in + final.total_raw_bytes)
            + model.spill_write_byte * final.total_bytes
        )
        if self.codec is not None:
            merge_work += model.decompress_byte * sum(
                i.total_raw_bytes for i in indices
            ) + model.compress_byte * final.total_raw_bytes
        self.instruments.charge(Op.MERGE, merge_work)
        self.counters.incr(Counter.MERGED_RECORDS, stats.records_in)
        return final


def combine_runs(
    collector: StandardCollector, runs: Iterable[list[SerdePair]], tally: float = 0.0
) -> tuple[Runs, float]:
    """Combine every equal-key group of the key-sorted *runs* (the
    per-spill combine and the end-of-map merge): returns the combined
    runs and *tally* advanced by each group's COMBINE charge.

    A proven fold (:attr:`CombinerRunner.fold`) never calls the runner:
    each run folds in one pass that never decodes a one-value group,
    every group is charged the generic path's amount in the same order,
    and the ``COMBINE_*`` counters are set once."""
    runner = collector.combiner_runner
    overhead = collector.cost_model.combine_record_overhead
    ledger = collector.instruments.ledger
    combined: Runs = []
    if runner.fold is None:
        for run in runs:
            out: list[SerdePair] = []
            for key_bytes, values in group_sorted(run):
                out.extend(runner.combine_serialized(key_bytes, values))
                amount = runner.last_work + overhead * len(values)
                ledger.charge(_COMBINE_OP, amount)
                tally += amount
            combined.append(out)
        return combined, tally

    value_cls = runner.value_cls
    read = int_reader(value_cls)
    op = None if runner.fold == "sum" else FOLD_OPS[runner.fold]
    combine_record = runner.user_costs.combine_record
    work = ledger.work
    charged = work.get(_COMBINE_OP, 0.0)
    in_records = out_records = 0
    for run in runs:
        out = []
        append = out.append
        key, count = None, 0
        for next_key, value in chain(run, ((END_OF_RUN, b""),)):
            if next_key == key:
                total = read(first) if count == 1 else total
                number = read(value)
                total = total + number if op is None else op(total, number)
                count += 1
                continue
            if count:
                append((key, first if count == 1 else wrap_folded(value_cls, total).to_bytes()))
                amount = combine_record * count + overhead * count
                charged += amount
                tally += amount
            key, first, count = next_key, value, 1
        in_records += len(run)
        out_records += len(out)
        combined.append(out)
    if charged:
        work[_COMBINE_OP] = charged
    runner.counters.incr(Counter.COMBINE_INPUT_RECORDS, in_records)
    runner.counters.incr(Counter.COMBINE_OUTPUT_RECORDS, out_records)
    return combined, tally
