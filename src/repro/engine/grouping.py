"""Grouping strategies: what the collector buffers, and how a drained
spill becomes sorted per-partition runs with its SORT/COMBINE charges.

``sort`` (:class:`SortGrouping`)
    Hadoop's ``MapOutputBuffer``: the collector's packed spill buffer,
    one stable sort per partition run, a combine per sorted key group
    (:func:`combine_runs`, shared with the end-of-map merge).
``hash`` (:class:`HashGrouping`)
    The paper's §VII "different post-map() grouping procedures" (§II-A:
    "Lin, et al. do not do full sorting at all").  Records are grouped
    immediately in a per-task hash table, combined eagerly once a group
    holds :data:`VALUES_PER_GROUP_LIMIT` values; a spill combines every
    group and sorts only the aggregates, so segments stay sorted for
    reduce.  O(n) hashing plus an O(u log u) sort replaces the
    O(n log n) raw sort: a large win when combining shrinks data
    (WordCount), a wash when it does not (joins).
"""

from __future__ import annotations

from math import log2
from typing import TYPE_CHECKING, Iterable

from ..io.merger import group_sorted
from ..serde.writable import SerdePair
from .binarybuffer import BinarySpill
from .counters import Counter
from .instrumentation import Op

if TYPE_CHECKING:  # pragma: no cover - typing only; the collector imports us
    from .collector import StandardCollector

#: A hash group's values are combined eagerly once this many accumulate.
VALUES_PER_GROUP_LIMIT = 16

_COMBINE_OP = Op.COMBINE

Runs = list[list[SerdePair]]


class SortGrouping:
    """Packed buffer, a stable sort per partition, combine over the sorted groups."""

    def __init__(self, collector: "StandardCollector") -> None:
        #: Its fused ``collect_serialized`` fills the buffer drained here.
        self.collector = collector

    def drain(self) -> tuple[BinarySpill, int] | None:
        """The buffered records as one spill and its size, or ``None``."""
        buffer = self.collector.buffer
        if buffer.is_empty:
            return None
        size_bytes = buffer.occupancy_bytes  # before the drain resets it
        return buffer.drain(), size_bytes

    def runs(self, spill: BinarySpill) -> tuple[Runs, float]:
        """Sort (and combine) one drained spill into per-partition runs;
        returns them with the SORT + COMBINE consume work."""
        collector = self.collector
        model = collector.cost_model
        sort_stats = spill.sort_stats(collector.exact_comparisons)
        consume_work = collector.instruments.charge_support_thread(
            Op.SORT,
            model.sort_comparison * sort_stats.comparisons
            + model.sort_byte_move * sort_stats.bytes_moved,
        )
        runs = spill.sorted_runs(collector.num_partitions)
        if collector.combiner_runner is None:
            return runs, consume_work
        return combine_runs(collector, runs, consume_work)


def combine_runs(
    collector: "StandardCollector", runs: Iterable[list[SerdePair]], tally: float = 0.0
) -> tuple[Runs, float]:
    """Combine every equal-key group of the key-sorted *runs* (the
    per-spill combine and the end-of-map merge): returns the combined
    runs and *tally* advanced by each group's COMBINE charge.

    A proven fold (:attr:`CombinerRunner.fold`) never calls the runner:
    groups fold on raw ints, charged the generic path's per-group
    amounts in the same order, the ``COMBINE_*`` counters set once."""
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

    fold_values = runner.fold_values
    combine_record = runner.user_costs.combine_record
    work = ledger.work
    charged = work.get(_COMBINE_OP, 0.0)
    in_records = out_records = 0
    for run in runs:
        out = []
        append = out.append
        for key_bytes, values in group_sorted(run):
            count = len(values)
            in_records += count
            append((key_bytes, values[0] if count == 1 else fold_values(values)))
            amount = combine_record * count + overhead * count
            charged += amount
            tally += amount
        out_records += len(out)
        combined.append(out)
    if charged:
        work[_COMBINE_OP] = charged
    runner.counters.incr(Counter.COMBINE_INPUT_RECORDS, in_records)
    runner.counters.incr(Counter.COMBINE_OUTPUT_RECORDS, out_records)
    return combined, tally


class HashGrouping:
    """Group-by-hash: one table entry per distinct key, not per record.
    The whole spill-buffer allocation backs the table; it spills when its
    key + value bytes reach the buffer's capacity."""

    def __init__(self, collector: "StandardCollector") -> None:
        self.collector = collector
        # Take over the per-record entry point: records go to the table,
        # never to the packed buffer.
        collector.collect_serialized = self.collect_serialized  # type: ignore[method-assign]
        #: (partition, key bytes) -> serialized values
        self._groups: dict[tuple[int, bytes], list[bytes]] = {}
        self._occupancy = 0
        #: COMBINE work of the eager combines since the last spill.
        self._pending_work = 0.0

    def collect_serialized(
        self, key_bytes: bytes, value_bytes: bytes, count_output: bool = True
    ) -> None:
        collector = self.collector
        model, charge = collector.cost_model, collector.instruments.charge_map_thread
        payload = len(key_bytes) + len(value_bytes)
        # Serialize + hash probe replace serialize + buffer append.
        charge(Op.EMIT, model.serialize_byte * payload + model.collect_record)
        charge(Op.HASHBUF, model.hash_record)
        if count_output:
            collector.counters.incr(Counter.MAP_OUTPUT_RECORDS)
            collector.counters.incr(Counter.MAP_OUTPUT_BYTES, payload)

        slot = (collector.partitioner.partition(key_bytes, collector.num_partitions), key_bytes)
        values = self._groups.get(slot)
        if values is None:
            values = self._groups[slot] = []
            self._occupancy += len(key_bytes)
        values.append(value_bytes)
        self._occupancy += len(value_bytes)

        runner = collector.combiner_runner
        if runner is not None and len(values) >= VALUES_PER_GROUP_LIMIT:
            # Eager combine.  Replace the slot before re-collecting any
            # output under another key: a re-collect may spill, and the
            # spill must see the combined values only.
            out = runner.combine_serialized(key_bytes, values)
            work = runner.last_work + model.combine_record_overhead * len(values)
            self._pending_work += collector.instruments.charge_support_thread(Op.COMBINE, work)
            kept = self._groups[slot] = [value for key, value in out if key == key_bytes]
            self._occupancy += sum(map(len, kept)) - sum(map(len, values))
            for out_key, out_value in out:
                if out_key != key_bytes:
                    self.collect_serialized(out_key, out_value, count_output=False)
        if self._occupancy >= collector.buffer.capacity_bytes:
            collector._spill()

    def drain(self) -> tuple[tuple[dict, float], int] | None:
        """The table and its eager-combine work as one spill, or ``None``."""
        if not self._groups:
            return None
        drained = (self._groups, self._pending_work), max(1, self._occupancy)
        self._groups, self._occupancy, self._pending_work = {}, 0, 0.0
        return drained

    def runs(self, spill: tuple[dict, float]) -> tuple[Runs, float]:
        """Combine every group, then sort the aggregates once; returns the
        runs with the eager + final COMBINE and the SORT work charged."""
        groups, consume_work = spill
        collector = self.collector
        instruments, combiner_runner = collector.instruments, collector.combiner_runner
        model = collector.cost_model
        partitioner, num_partitions = collector.partitioner, collector.num_partitions
        partitions: Runs = [[] for _ in range(num_partitions)]
        for (partition, key_bytes), values in groups.items():
            if combiner_runner is not None and len(values) > 1:
                out = combiner_runner.combine_serialized(key_bytes, values)
                work = combiner_runner.last_work + model.combine_record_overhead * len(values)
                consume_work += instruments.charge_support_thread(Op.COMBINE, work)
            else:
                out = [(key_bytes, value) for value in values]
            for record in out:  # a re-keyed output goes to its key's partition
                same = record[0] == key_bytes
                target = partition if same else partitioner.partition(record[0], num_partitions)
                partitions[target].append(record)

        sort_comparisons = 0.0
        for run in partitions:
            run.sort(key=lambda record: record[0])
            if len(run) > 1:
                sort_comparisons += len(run) * log2(len(run))
        sort_work = model.sort_comparison * sort_comparisons
        return partitions, consume_work + instruments.charge_support_thread(Op.SORT, sort_work)
