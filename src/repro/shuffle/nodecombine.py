"""In-node combining of map outputs before reducers fetch.

Per-task combining folds duplicate keys *within* one map task's output;
on a node running many map tasks the same hot keys survive once per
task and cross the network that many times.  This stage interposes
between map completion and reduce fetch: for each node it streams every
finished map output on that node through a **bounded** hash stage
(the ``PartialHashOutputCollector`` idiom — see arXiv:1511.04861),
folds equal keys with the job's own combiner, and republishes one
synthetic per-node map output that reducers fetch instead of the
originals.

Boundedness: the hash stage holds at most
``repro.shuffle.node.combine.buffer.bytes`` of key/value payload.  On
overflow the fullest partition is *partially flushed* — combined,
sorted, and parked as a finished run — and admission continues.  At
finalize the parked runs and the remaining hash contents are k-way
merged per partition with combining
(:func:`~repro.io.merger.merge_and_combine`), so duplicate keys that
straddled a flush still fold to one record.

The hash stage shares frequency buffering's two folds: generically a
slot collects a key's serialized values for ``combine()`` to fold at
flush; when ``combine()`` is a proven int ``sum``/``min``/``max``
(:func:`repro.engine.combiner.proven_fold`) a slot is ``[count,
running total]`` — decoded once in (a writable only off the one-byte
vint table), encoded once out, and the ``combine()`` that did not run
charged exactly as if it had.

Correctness gating mirrors frequency buffering: the stage only folds
with a combiner the static analyzer verified *fold-like*
(:func:`repro.lint.engine.gate_job`), because folding across task
boundaries changes how many times — and over which groupings — the
combiner runs.

Accounting: all stage work lands on the dedicated
:data:`~repro.engine.instrumentation.Op.NODE_COMBINE` ledger op
(framework work, shuffle phase) and the ``NODE_COMBINE_*`` counters.
The combiner runs against a private counter bag, so the job-level
``COMBINE_INPUT/OUTPUT_RECORDS`` still mean exactly "per-task combine"
and nothing is double counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import log2

from ..config import Keys
from ..engine.combiner import FOLD_OPS, CombinerRunner, wrap_folded
from ..engine.counters import Counter, Counters
from ..engine.instrumentation import Ledger, Op
from ..engine.job import JobSpec
from ..engine.maptask import MapTaskResult
from ..engine.pipeline import PipelineResult
from ..io.blockdisk import LocalDisk
from ..io.merger import MergeStats, merge_and_combine
from ..io.spillfile import read_segment, write_spill
from ..serde.numeric import int_values
from ..serde.writable import SerdePair


def node_combine_task_id(job: JobSpec, host: str) -> str:
    """The synthetic output's task id — namespaced like a task of *job*
    so per-job accounting (attempt counts, recovery counters) that
    filters on the ``{job.name}.`` prefix keeps working."""
    return f"{job.name}.nc.{host}"


@dataclass
class NodeCombineOutcome:
    """What one job-level node-combine pass produced.

    ``results`` are the synthetic per-node map outputs reducers fetch;
    the originals stay in the job result untouched.  ``ledger`` and
    ``counters`` carry the stage's own accounting and merge into the
    job totals at assembly."""

    results: list[MapTaskResult]
    ledger: Ledger = field(default_factory=Ledger)
    counters: Counters = field(default_factory=Counters)


class NodeCombiner:
    """Folds the finished map outputs of one node into one output."""

    def __init__(self, job: JobSpec) -> None:
        if job.combiner_factory is None:
            raise ValueError("node combining requires a job combiner")
        self.job = job
        self.buffer_bytes = job.conf.get_positive_int(Keys.NODE_COMBINE_BUFFER_BYTES)
        self.ledger = Ledger()
        self.counters = Counters()
        codec = None
        codec_name = job.conf.get_str(Keys.SPILL_COMPRESSION)
        if codec_name != "identity":
            from ..io.compression import codec_by_name

            codec = codec_by_name(codec_name)
        self.codec = codec

    # ------------------------------------------------------------------
    def combine_host(self, host: str, results: list[MapTaskResult]) -> MapTaskResult:
        """Fold one node's map outputs into one synthetic map output."""
        job = self.job
        model = job.cost_model
        work = 0.0
        # The combiner charges a private counter bag: the job-level
        # COMBINE_* counters must keep meaning "per-task combine" only.
        private = Counters()
        runner = CombinerRunner(
            job.combiner_factory(),  # type: ignore[misc]  # checked in __init__
            job.map_output_key_cls,
            job.map_output_value_cls,
            job.user_costs,
            private,
        )

        def combine(key_bytes: bytes, value_bytes: list[bytes]) -> list[SerdePair]:
            nonlocal work
            out = runner.combine_serialized(key_bytes, value_bytes)
            work += runner.last_work + model.combine_record_overhead * len(value_bytes)
            return out

        value_cls = job.map_output_value_cls
        fold_op = FOLD_OPS[runner.fold] if runner.fold is not None else None
        combine_record = job.user_costs.combine_record

        def encode_folded(key_bytes: bytes, slot: list) -> SerdePair:
            """The record combine() would have emitted for a folded slot,
            charged as that call would have been."""
            nonlocal work
            count, total = slot
            work += combine_record * count + model.combine_record_overhead * count
            return key_bytes, wrap_folded(value_cls, total).to_bytes()

        num_partitions = job.num_reducers
        # partition -> {key bytes -> [value bytes, ...]} — the bounded
        # stage; under the monoid fold a slot is [count, running total].
        tables: list[dict[bytes, list]] = [{} for _ in range(num_partitions)]
        table_bytes = [0] * num_partitions
        # partition -> parked sorted+combined runs from partial flushes.
        runs: list[list[list[SerdePair]]] = [[] for _ in range(num_partitions)]
        buffered = 0
        in_records = 0
        in_bytes = 0
        flushes = 0

        def flush_partition(partition: int) -> None:
            """Combine + sort one partition's hash contents into a run."""
            nonlocal buffered, work, flushes
            table = tables[partition]
            if not table:
                return
            keys = sorted(table)
            work += model.sort_comparison * len(keys) * log2(max(2, len(keys)))
            if fold_op is None:
                run: list[SerdePair] = []
                for key_bytes in keys:
                    run.extend(combine(key_bytes, table[key_bytes]))
            else:
                run = [encode_folded(key_bytes, table[key_bytes]) for key_bytes in keys]
            runs[partition].append(run)
            buffered -= table_bytes[partition]
            tables[partition] = {}
            table_bytes[partition] = 0
            flushes += 1

        for result in results:
            index = result.output_index
            for partition in range(num_partitions):
                entry = index.entry(partition)
                if entry.records == 0:
                    continue
                read_work = model.spill_read_byte * entry.length
                if index.codec is not None:
                    read_work += model.decompress_byte * entry.uncompressed_length
                work += read_work
                records = read_segment(result.disk, index, partition)
                numbers = (  # under the monoid fold, one decoded int per record
                    repeat(None)
                    if fold_op is None
                    else int_values(value_cls, [value for _, value in records])
                )
                for (key_bytes, value_bytes), number in zip(records, numbers):
                    size = len(key_bytes) + len(value_bytes)
                    in_records += 1
                    in_bytes += size
                    work += model.hash_record
                    table = tables[partition]
                    if fold_op is None:
                        table.setdefault(key_bytes, []).append(value_bytes)
                    else:
                        slot = table.get(key_bytes)
                        if slot is None:
                            table[key_bytes] = [1, number]
                        else:
                            slot[0] += 1
                            slot[1] = fold_op(slot[1], number)
                    table_bytes[partition] += size
                    buffered += size
                    if buffered > self.buffer_bytes:
                        flush_partition(max(range(num_partitions), key=table_bytes.__getitem__))

        partitions: list[list[SerdePair]] = []
        for partition in range(num_partitions):
            flush_partition(partition)
            parked = runs[partition]
            if len(parked) <= 1:
                # A lone run is already combined and sorted.
                partitions.append(parked[0] if parked else [])
                continue
            stats = MergeStats()
            merged = merge_and_combine(parked, combine, stats)
            work += model.merge_comparison * stats.comparisons
            partitions.append(merged)

        task_id = node_combine_task_id(job, host)
        disk = LocalDisk(f"{task_id}.disk")
        out_index = write_spill(disk, f"{task_id}.out", partitions, codec=self.codec)
        work += model.spill_write_byte * out_index.total_bytes
        if self.codec is not None:
            work += model.compress_byte * out_index.total_raw_bytes

        self.ledger.charge(Op.NODE_COMBINE, work)
        counters = self.counters
        counters.incr(Counter.NODE_COMBINE_HOSTS)
        counters.incr(Counter.NODE_COMBINE_IN_RECORDS, in_records)
        counters.incr(Counter.NODE_COMBINE_IN_BYTES, in_bytes)
        counters.incr(Counter.NODE_COMBINE_OUT_RECORDS, out_index.total_records)
        counters.incr(Counter.NODE_COMBINE_OUT_BYTES, out_index.total_bytes)
        counters.incr(Counter.NODE_COMBINE_FLUSHES, flushes)

        # The synthetic result carries empty accounting of its own: the
        # stage's charges live on this NodeCombiner's ledger/counters and
        # merge at job assembly — summing the *original* map results plus
        # this outcome never double counts.
        return MapTaskResult(
            task_id=task_id,
            split=results[0].split,
            output_index=out_index,
            disk=disk,
            ledger=Ledger(),
            counters=Counters(),
            pipeline=PipelineResult(),
            host=host,
        )

    def outcome(self, results: list[MapTaskResult]) -> NodeCombineOutcome:
        return NodeCombineOutcome(
            results=results, ledger=self.ledger, counters=self.counters
        )
