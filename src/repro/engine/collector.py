"""Map-output collectors: the standard spill path.

A *collector* receives the (key, value) pairs the user's ``map()``
emits and is responsible for everything between ``map()`` and the final
map-output file.  :class:`StandardCollector` reproduces Hadoop's
``MapOutputBuffer`` dataflow:

    serialize -> partition -> buffer -> [threshold] -> sort -> combine
    -> spill to disk -> ... -> final merge of all spills

The frequency-buffering optimization wraps this class (see
:mod:`repro.core.freqbuf.collector`), diverting frequent keys before
they enter the buffer; spill-matcher plugs in as the
:class:`~repro.engine.spillpolicy.SpillPolicy`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from ..errors import SpillBufferError
from ..io.blockdisk import LocalDisk
from ..io.merger import MergeStats, merge_and_combine
from ..io.spillfile import SpillIndex, read_segment, write_spill
from ..serde.writable import SerdePair, Writable
from .api import HashPartitioner, Partitioner
from .combiner import CombinerRunner
from .costmodel import CostModel
from .counters import Counter, Counters
from .instrumentation import Op, TaskInstruments
from .pipeline import PipelineTimeline
from .binarybuffer import BinarySpill, BinarySpillBuffer
from .sorter import SortStats, cut_partitions, sort_spill
from .spillbuffer import RECORD_METADATA_BYTES, SpillBuffer, oversized_record_message
from .spillpolicy import SpillPolicy


class MapOutputCollector(ABC):
    """Sink for user map() output; owns the path to the final map file."""

    @abstractmethod
    def collect(self, key: Writable, value: Writable) -> None:
        """Accept one emitted record."""

    @abstractmethod
    def flush(self) -> "SpillIndex":
        """End of input: drain buffers, merge spills, return the final
        map-output index (one sorted segment per reduce partition)."""

    def note_input_progress(self, fraction: float) -> None:
        """Hint from the task runner: *fraction* of the split's input has
        been consumed.  The frequency-buffering collector uses this to
        time its profiling stage (the paper's sampling fraction ``s`` is
        a percentage of the map task's input records); the standard
        collector ignores it."""

    def abort(self) -> None:
        """The task attempt failed before :meth:`flush`: release any
        resources the collector holds.  Collectors that own a real
        support thread (:mod:`repro.exec.livepipeline`) must stop it here
        so a retried attempt never races a stale thread; the synchronous
        collectors have nothing to do."""


class StandardCollector(MapOutputCollector):
    """Hadoop's store-sort-combine-spill-merge dataflow, instrumented."""

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

        self.buffer = self._make_buffer(capacity_bytes)
        self.timeline = PipelineTimeline(capacity_bytes)
        self.spill_indices: list[SpillIndex] = []
        self._spill_target = self.timeline.expected_next_size(
            policy.spill_percent(), None
        )
        self._produce_mark = instruments.map_thread_work
        #: A front stage that defers its map-thread charges (the
        #: frequency buffer) settles them here, before each spill reads
        #: the produce work.
        self.settle_front_stage: Callable[[], None] | None = None
        self._flushed = False

    def _make_buffer(self, capacity_bytes: int):
        """The accumulation buffer.  :class:`BinaryStandardCollector`
        swaps in the packed binary buffer; both share the capacity and
        occupancy-accounting contract, so spill boundaries agree."""
        return SpillBuffer(capacity_bytes)

    # ------------------------------------------------------------------
    # collection path
    # ------------------------------------------------------------------
    def collect(self, key: Writable, value: Writable) -> None:
        key_bytes = key.to_bytes()
        value_bytes = value.to_bytes()
        self.collect_serialized(key_bytes, value_bytes)

    def collect_serialized(
        self, key_bytes: bytes, value_bytes: bytes, count_output: bool = True
    ) -> None:
        """Accept an already-serialized record.

        The frequency buffer uses this to drain combined tuples into the
        standard path with ``count_output=False`` — those tuples were
        already counted as map output when the user emitted them.
        """
        model = self.cost_model
        payload = len(key_bytes) + len(value_bytes)
        self.instruments.charge_map_thread(
            Op.EMIT, model.serialize_byte * payload + model.collect_record
        )
        if count_output:
            self.counters.incr(Counter.MAP_OUTPUT_RECORDS)
            self.counters.incr(Counter.MAP_OUTPUT_BYTES, payload)

        partition = self.partitioner.partition(key_bytes, self.num_partitions)
        if payload + RECORD_METADATA_BYTES > self.buffer.capacity_bytes:
            # A record larger than the whole buffer can never be spilled;
            # fail before uselessly spilling everything already buffered,
            # and identify the record (a record merely larger than the
            # spill *threshold* falls through and cuts a clean
            # single-record spill below).
            raise SpillBufferError(
                oversized_record_message(
                    partition,
                    key_bytes,
                    payload + RECORD_METADATA_BYTES,
                    self.buffer.capacity_bytes,
                )
            )
        if self.buffer.would_overflow(len(key_bytes), len(value_bytes)):
            # Hard capacity: spill whatever we have before appending.
            self._spill()
        self.buffer.append(partition, key_bytes, value_bytes)
        if self.buffer.occupancy_bytes >= self._spill_target:
            self._spill()

    # ------------------------------------------------------------------
    # spilling
    # ------------------------------------------------------------------
    def _spill(self) -> None:
        if self.buffer.is_empty:
            return
        instruments = self.instruments
        size_bytes = self.buffer.occupancy_bytes
        records = self.buffer.drain()

        consume_work = self._consume_spill(
            records, instruments, self.counters, self.combiner_runner
        )

        # --- pipeline bookkeeping ---
        produce_work = self._take_produce_work()
        self.timeline.record_spill(max(produce_work, 1e-9), max(consume_work, 1e-9), size_bytes)
        self.policy.observe(produce_work, consume_work, size_bytes)
        self._spill_target = self.timeline.expected_next_size(
            self.policy.spill_percent(), self.policy.produce_consume_ratio()
        )

    def _take_produce_work(self) -> float:
        """Map-thread work since the previous spill: the pipeline's T_p."""
        if self.settle_front_stage is not None:
            self.settle_front_stage()
        mark, self._produce_mark = self._produce_mark, self.instruments.map_thread_work
        return self._produce_mark - mark

    def _consume_spill(
        self,
        records: list,
        instruments: TaskInstruments,
        counters: Counters,
        combiner_runner: CombinerRunner | None,
    ) -> float:
        """Sort + combine + write one drained spill: the support thread's
        job for one cycle.  Returns the modelled consume work ``T_c``.

        The accounting sinks are parameters (instead of ``self.…``) so
        the live pipeline can run this on a real support thread against
        thread-private instruments/counters/combiner and merge them back
        at join time, without sharing mutable state across threads.
        """
        model = self.cost_model

        # --- sort (support thread) ---
        ordered, sort_stats = self._sort_drained(records)
        consume_work = instruments.charge_support_thread(
            Op.SORT,
            model.sort_comparison * sort_stats.comparisons
            + model.sort_byte_move * sort_stats.bytes_moved,
        )

        # --- combine (support thread, user code) ---
        partitions = self._cut_drained(ordered)
        if combiner_runner is not None:
            combined: list[list[SerdePair]] = []
            for run in partitions:
                out_run: list[SerdePair] = []
                group_key: bytes | None = None
                group_values: list[bytes] = []
                for kb, vb in run:
                    if kb != group_key:
                        if group_key is not None:
                            out, work = self._run_combiner(
                                group_key, group_values, instruments, combiner_runner
                            )
                            out_run.extend(out)
                            consume_work += work
                        group_key = kb
                        group_values = [vb]
                    else:
                        group_values.append(vb)
                if group_key is not None:
                    out, work = self._run_combiner(
                        group_key, group_values, instruments, combiner_runner
                    )
                    out_run.extend(out)
                    consume_work += work
                combined.append(out_run)
            partitions = combined

        # --- write spill file (support thread) ---
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

    def _sort_drained(self, drained) -> tuple[object, SortStats]:
        """Order one drained buffer-load by (partition, key bytes).

        Returns an opaque ordered form plus stats for the SORT charge;
        :meth:`_cut_drained` turns the ordered form into per-partition
        record runs.  The pair exists so the binary collector can swap
        in its kvindex sort without touching the shared combine/spill
        logic above."""
        return sort_spill(drained, self.exact_comparisons)

    def _cut_drained(self, ordered) -> list[list[SerdePair]]:
        return cut_partitions(ordered, self.num_partitions)

    def _run_combiner(
        self,
        key_bytes: bytes,
        value_bytes: list[bytes],
        instruments: TaskInstruments,
        combiner_runner: CombinerRunner,
    ) -> tuple[list[SerdePair], float]:
        """Combine one group on the support thread; returns (records, work)."""
        model = self.cost_model
        out = combiner_runner.combine_serialized(key_bytes, value_bytes)
        work = instruments.charge_support_thread(
            Op.COMBINE,
            combiner_runner.last_work
            + model.combine_record_overhead * len(value_bytes),
        )
        return out, work

    def _join_support(self) -> None:
        """Hook between the last spill and the final merge.  The live
        pipeline (:mod:`repro.exec.livepipeline`) overrides this to wait
        for its real support thread to finish every queued spill before
        the merge reads the spill files; the modelled collector runs
        spills inline, so there is nothing to wait for."""

    # ------------------------------------------------------------------
    # final merge
    # ------------------------------------------------------------------
    def flush(self) -> SpillIndex:
        if self._flushed:
            raise SpillBufferError("collector already flushed")
        self._flushed = True
        if not self.buffer.is_empty:
            self._spill()
        self._join_support()
        self.timeline.finish()

        if not self.spill_indices:
            # No output at all: write an empty final file.
            final = write_spill(
                self.disk,
                f"{self.task_id}.out",
                [[] for _ in range(self.num_partitions)],
            )
            return final

        if len(self.spill_indices) == 1:
            # Single spill: Hadoop promotes it to the final output without
            # another pass — no merge work to charge.
            return self.spill_indices[0]

        return self._merge_spills(self.spill_indices)

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
        combine = None
        if self.combiner_runner is not None:
            runner = self.combiner_runner

            def combine(kb: bytes, vbs: list[bytes]) -> list[SerdePair]:
                out = runner.combine_serialized(kb, vbs)
                self.instruments.charge(
                    Op.COMBINE,
                    runner.last_work + model.combine_record_overhead * len(vbs),
                )
                return out

        partitions: list[list[SerdePair]] = []
        total_stats = MergeStats()
        for partition in range(self.num_partitions):
            runs = [list(read_segment(self.disk, index, partition)) for index in indices]
            stats = MergeStats()
            merged = list(merge_and_combine(runs, combine, stats))
            total_stats.records_in += stats.records_in
            total_stats.bytes_in += stats.bytes_in
            total_stats.comparisons += stats.comparisons
            partitions.append(merged)

        final = write_spill(self.disk, out_path, partitions, codec=self.codec)
        merge_work = (
            model.spill_read_byte * sum(i.total_bytes for i in indices)
            + model.merge_comparison * total_stats.comparisons
            + model.merge_byte * (total_stats.bytes_in + final.total_raw_bytes)
            + model.spill_write_byte * final.total_bytes
        )
        if self.codec is not None:
            merge_work += model.decompress_byte * sum(
                i.total_raw_bytes for i in indices
            ) + model.compress_byte * final.total_raw_bytes
        self.instruments.charge(Op.MERGE, merge_work)
        self.counters.incr(Counter.MERGED_RECORDS, total_stats.records_in)
        return final


#: Bound on the binary collector's key→partition memo.  Text keys are
#: Zipfian (the paper's premise), so a modest cap catches nearly every
#: lookup while keeping worst-case memory bounded on high-cardinality
#: key spaces.
_PARTITION_MEMO_MAX = 1 << 16

_EMIT_OP = Op.EMIT
_MAP_OUTPUT_RECORDS = Counter.MAP_OUTPUT_RECORDS
_MAP_OUTPUT_BYTES = Counter.MAP_OUTPUT_BYTES


class BinaryStandardCollector(StandardCollector):
    """StandardCollector over the packed binary spill buffer.

    Selected by ``repro.io.collector = binary``.  The collect loop
    appends serialized bytes into one contiguous buffer plus a flat
    uint32 kvindex, and spills order themselves with the key-prefix
    integer sort (:mod:`repro.engine.binarybuffer`).  Everything
    downstream of the sort — combine batching per key run, spill files,
    merges, counters, and every ledger charge — is the shared
    ``StandardCollector`` code over identical record sequences, which is
    what makes this path byte-for-byte and charge-for-charge identical
    to the object collector.

    The collect hot loop is *fused*: :meth:`collect_serialized` inlines
    the EMIT charge, the output counters, and the buffer append into one
    frame, and memoizes the default partitioner's key hash (the FNV loop
    is per key byte — by far the most expensive per-record step, and a
    pure function of the key, so a memo changes nothing).  Every
    externally observable effect — ledger floats in charge order,
    counter integers, spill boundaries, error behaviour — is identical
    to the shared path's, record for record.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # Memoize only the stock partitioner: a custom Partitioner is
        # user code and owns its own (key, n) -> partition semantics.
        self._partition_memo: dict[bytes, int] | None = (
            {} if type(self.partitioner) is HashPartitioner else None
        )

    def _make_buffer(self, capacity_bytes: int) -> BinarySpillBuffer:
        return BinarySpillBuffer(capacity_bytes)

    def collect_serialized(
        self, key_bytes: bytes, value_bytes: bytes, count_output: bool = True
    ) -> None:
        # Fused rewrite of StandardCollector.collect_serialized: same
        # operations in the same order (charge, count, partition,
        # oversized check, overflow spill, append, threshold spill) with
        # the per-record method-call fan-out collapsed.  Floats
        # accumulate in the same sequence, so ledgers match bit for bit.
        model = self.cost_model
        payload = len(key_bytes) + len(value_bytes)
        amount = model.serialize_byte * payload + model.collect_record
        instruments = self.instruments
        if amount:
            work = instruments.ledger.work
            work[_EMIT_OP] = work.get(_EMIT_OP, 0.0) + amount
            instruments.map_thread_work += amount
        if count_output:
            values = self.counters.values
            values[_MAP_OUTPUT_RECORDS] = values.get(_MAP_OUTPUT_RECORDS, 0) + 1
            if payload:
                values[_MAP_OUTPUT_BYTES] = values.get(_MAP_OUTPUT_BYTES, 0) + payload

        memo = self._partition_memo
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
        # Inlined BinarySpillBuffer.append (see that class's hot-path
        # contract note): payload bytes into the kvbuffer, five uint32s
        # into the kvindex, occupancy in accounted bytes.
        data = buffer._data
        key_off = len(data)
        data += key_bytes
        val_off = len(data)
        data += value_bytes
        buffer._meta.extend(
            (partition, key_off, len(key_bytes), val_off, len(value_bytes))
        )
        occupancy = buffer._occupancy = buffer._occupancy + accounted
        if occupancy >= self._spill_target:
            self._spill()

    def _sort_drained(self, drained: BinarySpill) -> tuple[object, SortStats]:
        order, stats = drained.sort(self.exact_comparisons)
        return (drained, order), stats

    def _cut_drained(self, ordered) -> list[list[SerdePair]]:
        spill, order = ordered
        partitions: list[list[SerdePair]] = [[] for _ in range(self.num_partitions)]
        appends = [run.append for run in partitions]
        data = spill.data
        meta = spill.meta
        for seq in order:
            base = 5 * seq
            key_off = meta[base + 1]
            val_off = meta[base + 3]
            appends[meta[base]](
                (
                    data[key_off : key_off + meta[base + 2]],
                    data[val_off : val_off + meta[base + 4]],
                )
            )
        return partitions
