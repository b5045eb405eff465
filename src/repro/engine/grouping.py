"""Grouping strategies: what the collector buffers, and how a drained
spill becomes sorted per-partition runs with its SORT/COMBINE charges.

``sort`` (:class:`SortGrouping`)
    Hadoop's ``MapOutputBuffer``: the collector's per-partition spill buffer,
    one stable sort per partition run, a combine per sorted key group
    (:func:`combine_runs`, shared with the end-of-map merge).
``hash`` (:class:`HashGrouping`)
    The paper's §VII "different post-map() grouping procedures" (§II-A:
    "Lin, et al. do not do full sorting at all").  Records are grouped
    immediately in a :class:`~repro.engine.foldtable.FoldTable` with
    open admission and no budget, combined eagerly once a key holds
    :data:`VALUES_PER_GROUP_LIMIT` values; a spill combines every key
    and sorts only the aggregates, so segments stay sorted for reduce.
    O(n) hashing plus an O(u log u) sort replaces the O(n log n) raw
    sort: a large win when combining shrinks data (WordCount), a wash
    when it does not (joins).
"""

from __future__ import annotations

from math import log2
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from ..io.merger import group_sorted
from ..serde.writable import SerdePair, Writable
from .binarybuffer import BinarySpill
from .counters import Counter
from .foldtable import Combined, FoldTable
from .instrumentation import Op

if TYPE_CHECKING:  # pragma: no cover - typing only; the collector imports us
    from .collector import StandardCollector

#: A hash group's values are combined eagerly once this many accumulate.
VALUES_PER_GROUP_LIMIT = 16

_COMBINE_OP = Op.COMBINE

Runs = list[list[SerdePair]]


class SortGrouping:
    """Per-partition runs, a stable sort each, combine over the sorted groups."""

    def __init__(self, collector: "StandardCollector") -> None:
        #: Its one-frame ``collect`` fills the buffer drained here.
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
    """Group-by-hash: one :class:`~repro.engine.foldtable.FoldTable` slot
    per distinct key, not one entry per record, and no budget.  The whole
    spill-buffer allocation backs the table; it spills when its key +
    value bytes reach the buffer's capacity."""

    def __init__(self, collector: "StandardCollector") -> None:
        self.collector = collector
        # Take over the per-record entry points: records go to the table,
        # never to the spill buffer.
        collector.collect = self.collect  # type: ignore[method-assign]
        collector.collect_serialized = self.collect_serialized  # type: ignore[method-assign]
        runner = collector.combiner_runner
        self.table = FoldTable(runner, VALUES_PER_GROUP_LIMIT)
        #: Under a proven fold a slot holds an int: decodes a value's bytes.
        self._decode = runner.value_cls.from_bytes if self.table.fold is not None else None
        #: COMBINE work of the eager combines since the last spill.
        self._pending_work = 0.0

    def collect(self, key: Writable, value: Writable) -> None:
        self.collect_serialized(key.to_bytes(), value.to_bytes())

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

        table, decode = self.table, self._decode
        item = value_bytes if decode is None else decode(value_bytes).value
        outcome = table.add(table.slot(key_bytes), item, len(value_bytes))
        if outcome is not None:
            rekeyed, combined = outcome
            # Charge the eager combine before re-collecting its re-keyed
            # output: a re-collect may spill this table, and that
            # spill's consume work includes this combine.
            self._pending_work += self._charge(combined)
            for out_key, out_value in rekeyed:
                self.collect_serialized(out_key, out_value, count_output=False)
        if table.occupancy_bytes >= collector.buffer.capacity_bytes:
            collector._spill()

    def _charge(self, combined: Combined) -> float:
        """Count *combined* and charge its COMBINE work to the support
        thread; returns that work."""
        if not combined:
            return 0.0
        collector = self.collector
        runner = collector.combiner_runner
        combine_record = runner.user_costs.combine_record
        overhead = collector.cost_model.combine_record_overhead
        charge = collector.instruments.charge_support_thread
        work = 0.0
        for values, _ in combined:
            work += charge(Op.COMBINE, combine_record * values + overhead * values)
        runner.counters.incr(Counter.COMBINE_INPUT_RECORDS, sum(n_in for n_in, _ in combined))
        runner.counters.incr(Counter.COMBINE_OUTPUT_RECORDS, sum(n_out for _, n_out in combined))
        return work

    def drain(self) -> tuple[tuple[tuple, float], int] | None:
        """The table's drained contents and the eager-combine work as one
        spill, or ``None``."""
        table = self.table
        if not table.slots:
            return None
        size_bytes = max(1, table.occupancy_bytes)  # before the drain resets it
        drained = (table.drain(), self._pending_work), size_bytes
        self._pending_work = 0.0
        return drained

    def runs(self, spill: tuple[tuple, float]) -> tuple[Runs, float]:
        """Sort the drained aggregates into partition runs; returns them
        with the eager + final COMBINE and the SORT work charged."""
        (aggregates, outcomes), consume_work = spill
        collector = self.collector
        partition, num_partitions = collector.partitioner.partition, collector.num_partitions
        partitions: Runs = [[] for _ in range(num_partitions)]
        for record in aggregates:
            partitions[partition(record[0], num_partitions)].append(record)
        for rekeyed, combined in outcomes:
            consume_work += self._charge(combined)
            for record in rekeyed:  # to its own key's partition
                partitions[partition(record[0], num_partitions)].append(record)

        sort_comparisons = 0.0
        for run in partitions:
            run.sort(key=itemgetter(0))
            if len(run) > 1:
                sort_comparisons += len(run) * log2(len(run))
        sort_work = collector.cost_model.sort_comparison * sort_comparisons
        return partitions, consume_work + collector.instruments.charge_support_thread(
            Op.SORT, sort_work
        )
