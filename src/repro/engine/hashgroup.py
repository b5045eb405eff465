"""Hash-based post-map grouping — the paper's §VII extension.

Section II-A observes that "some user reduce() functions require only a
grouping by the intermediate key ... it is possible to count the total
number of times a URL is observed in a log file using a hash-based
grouping mechanism instead of a sort.  Indeed, Lin, et al. do not do
full sorting at all", and §VII names "different post-map() grouping
procedures" as future work.  This collector implements that procedure:

* emitted records are grouped *immediately* in a per-task hash table
  (key -> accumulated values), with the user's ``combine()`` applied
  eagerly whenever a group grows past a limit — an unbounded-coverage
  generalization of frequency-buffering's frequent-key table;
* when the table exceeds its memory budget it is flushed: every group
  is combined, the aggregates are sorted *once* (far fewer records than
  raw map output) and written as a normal sorted spill;
* flush-time spills merge exactly like the standard collector's, so
  the reduce contract (sorted per-partition segments) is preserved and
  jobs that rely on sorted output (InvertedIndex) still work.

Compared with the sort-based dataflow this trades the O(n log n) raw
sort for O(n) hashing plus an O(u log u) sort of unique aggregates —
a large win exactly when combining shrinks data (WordCount), and a
wash when it does not (joins).  Enabled with
``conf.set(Keys.GROUPING, "hash")``; requires no user code changes.
"""

from __future__ import annotations

from math import log2

from ..errors import SpillBufferError
from ..io.spillfile import SpillIndex, write_spill
from ..serde.writable import SerdePair
from .collector import StandardCollector
from .counters import Counter
from .instrumentation import Op


class HashGroupingCollector(StandardCollector):
    """Group-by-hash map-output collector.

    Subclasses :class:`StandardCollector` to reuse partitioning, spill
    files, the multi-pass merge, and the pipeline timeline; only the
    collection path and the spill *content* differ: the buffer holds
    one entry per distinct key rather than one per emitted record.
    """

    def __init__(self, *args, values_per_group_limit: int = 16, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if values_per_group_limit < 2:
            raise ValueError(
                f"values_per_group_limit must be >= 2, got {values_per_group_limit}"
            )
        self.values_per_group_limit = values_per_group_limit
        # (partition, key bytes) -> list of serialized values
        self._groups: dict[tuple[int, bytes], list[bytes]] = {}
        self._occupancy = 0
        self._pending_consume_work = 0.0

    # ------------------------------------------------------------------
    # collection path
    # ------------------------------------------------------------------
    def collect_serialized(
        self, key_bytes: bytes, value_bytes: bytes, count_output: bool = True
    ) -> None:
        model = self.cost_model
        payload = len(key_bytes) + len(value_bytes)
        # Serialize + hash probe replace serialize + buffer append.
        self.instruments.charge_map_thread(
            Op.EMIT, model.serialize_byte * payload + model.collect_record
        )
        self.instruments.charge_map_thread(Op.HASHBUF, model.hash_record)
        if count_output:
            self.counters.incr(Counter.MAP_OUTPUT_RECORDS)
            self.counters.incr(Counter.MAP_OUTPUT_BYTES, payload)

        partition = self.partitioner.partition(key_bytes, self.num_partitions)
        slot = (partition, key_bytes)
        values = self._groups.get(slot)
        if values is None:
            values = []
            self._groups[slot] = values
            self._occupancy += len(key_bytes)
        values.append(value_bytes)
        self._occupancy += len(value_bytes)

        if self.combiner_runner is not None and len(values) >= self.values_per_group_limit:
            self._combine_group(slot)
        if self._occupancy >= self._hash_budget():
            self._spill_groups()

    def _hash_budget(self) -> int:
        # The whole spill-buffer allocation backs the hash table here.
        return self.buffer.capacity_bytes

    def _combine_group(self, slot: tuple[int, bytes]) -> None:
        _, key_bytes = slot
        values = self._groups[slot]
        before = sum(len(v) for v in values)
        out = self.combiner_runner.combine_serialized(key_bytes, values)  # type: ignore[union-attr]
        work = self.instruments.charge_support_thread(
            Op.COMBINE,
            self.combiner_runner.last_work  # type: ignore[union-attr]
            + self.cost_model.combine_record_overhead * len(values),
        )
        self._pending_consume_work += work
        new_values: list[bytes] = []
        for out_key, out_value in out:
            if out_key == key_bytes:
                new_values.append(out_value)
            else:
                # A combiner may emit under another key: re-collect it.
                self.collect_serialized(out_key, out_value, count_output=False)
        self._groups[slot] = new_values
        self._occupancy += sum(len(v) for v in new_values) - before

    # ------------------------------------------------------------------
    # spilling
    # ------------------------------------------------------------------
    def _spill_groups(self) -> None:
        if not self._groups:
            return
        model = self.cost_model
        instruments = self.instruments
        size_bytes = max(1, self._occupancy)

        consume_work = self._pending_consume_work
        self._pending_consume_work = 0.0

        # Combine every group, then sort the (far smaller) aggregate set.
        partitions: list[list[SerdePair]] = [[] for _ in range(self.num_partitions)]
        total_records = 0
        for (partition, key_bytes), values in self._groups.items():
            if not values:
                continue
            if self.combiner_runner is not None and len(values) > 1:
                out = self.combiner_runner.combine_serialized(key_bytes, values)
                consume_work += instruments.charge_support_thread(
                    Op.COMBINE,
                    self.combiner_runner.last_work
                    + model.combine_record_overhead * len(values),
                )
            else:
                out = [(key_bytes, value) for value in values]
            for out_key, out_value in out:
                # Combiners normally preserve keys; if one emits under a
                # different key, route it to that key's partition.
                target = (
                    partition
                    if out_key == key_bytes
                    else self.partitioner.partition(out_key, self.num_partitions)
                )
                partitions[target].append((out_key, out_value))
            total_records += len(out)

        sort_comparisons = 0.0
        for run in partitions:
            run.sort(key=lambda record: record[0])
            if len(run) > 1:
                sort_comparisons += len(run) * log2(len(run))
        consume_work += instruments.charge_support_thread(
            Op.SORT, model.sort_comparison * sort_comparisons
        )

        path = f"{self.task_id}.hspill{len(self.spill_indices)}"
        index = write_spill(self.disk, path, partitions, codec=self.codec)
        spill_io_work = model.spill_write_byte * index.total_bytes
        if self.codec is not None:
            spill_io_work += model.compress_byte * index.total_raw_bytes
        consume_work += instruments.charge_support_thread(Op.SPILL_IO, spill_io_work)

        self.spill_indices.append(index)
        self.counters.incr(Counter.SPILLS)
        self.counters.incr(Counter.SPILLED_RECORDS, index.total_records)
        self.counters.incr(Counter.SPILLED_BYTES, index.total_bytes)

        produce_work = self._take_produce_work()
        self.timeline.record_spill(
            max(produce_work, 1e-9), max(consume_work, 1e-9), size_bytes
        )
        self.policy.observe(produce_work, consume_work, size_bytes)

        self._groups.clear()
        self._occupancy = 0

    # ------------------------------------------------------------------
    # flush
    # ------------------------------------------------------------------
    def flush(self) -> SpillIndex:
        if self._flushed:
            raise SpillBufferError("collector already flushed")
        self._flushed = True
        self._spill_groups()
        self.timeline.finish()

        if not self.spill_indices:
            return write_spill(
                self.disk,
                f"{self.task_id}.out",
                [[] for _ in range(self.num_partitions)],
                codec=self.codec,
            )
        if len(self.spill_indices) == 1:
            return self.spill_indices[0]
        return self._merge_spills(list(self.spill_indices))
