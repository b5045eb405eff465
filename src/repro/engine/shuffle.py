"""The shuffle: moving sorted map-output segments to reducers.

The paper (Table I / Section II-A) treats shuffle as pure abstraction
cost: "No user code is involved; any time spent in shuffle is pure
overhead imposed by the MapReduce abstraction."  We charge every byte
fetched at the network rate (refined by the cluster simulator's
topology for same-host fetches) plus the reduce-side merge work.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..io.blockdisk import LocalDisk
from ..io.merger import MergeStats, merge_runs
from ..io.records import decode_records
from ..io.spillfile import SpillIndex, segment_payload, write_spill
from ..serde.writable import SerdePair
from .costmodel import CostModel
from .counters import Counter, Counters
from .instrumentation import Op, TaskInstruments
from .maptask import MapTaskResult


@dataclass
class ShuffleFetch:
    """One reducer's fetch of one map task's segment."""

    map_task_id: str
    map_host: str | None
    length: int
    local: bool


@dataclass
class FetchedSegment:
    """One acquired partition segment, however it travelled.

    ``payload`` is the decompressed record-frame bytes; ``stored_length``
    is what the wire (or the modelled wire) carried.  Network fetches
    additionally report measured wall time, retry counts, and the idle
    time lost to backoff + failed attempts, so the service can charge
    :data:`~repro.engine.instrumentation.Op.SHUFFLE` from measurements.
    """

    payload: bytes
    stored_length: int
    local: bool
    seconds: float | None = None  # measured wall time of the winning attempt
    retries: int = 0
    wait_seconds: float = 0.0  # backoff sleeps + failed-attempt durations


class ShuffleService:
    """Fetches and merges the map-output segments for one reduce partition.

    Mirrors Hadoop's reduce-side ``MergeManager``: fetched segments
    accumulate in a bounded memory budget; when it overflows, the
    in-memory runs are merged once and staged to the reducer's local
    disk, and the final pass merges the on-disk runs with whatever
    remains in memory.  With the (default) generous budget everything
    stays in memory and a single merge pass runs — but large shuffles
    pay the same extra disk round trip real Hadoop reducers pay.
    """

    def __init__(
        self,
        cost_model: CostModel,
        instruments: TaskInstruments,
        counters: Counters,
        reduce_host: str | None = None,
        memory_budget_bytes: int | None = None,
        staging_disk: "LocalDisk | None" = None,
    ) -> None:
        self.cost_model = cost_model
        self.instruments = instruments
        self.counters = counters
        self.reduce_host = reduce_host
        self.memory_budget_bytes = memory_budget_bytes
        self.staging_disk = staging_disk
        self.fetches: list[ShuffleFetch] = []
        self.bytes_fetched = 0
        self.remote_bytes_fetched = 0
        self.disk_merge_passes = 0
        self.fetch_retries = 0
        self.fetch_wait_seconds = 0.0

    def fetch_and_merge(
        self, map_results: list[MapTaskResult], partition: int
    ) -> list[SerdePair]:
        """Fetch this partition's segment from every map output and k-way
        merge them into a single sorted record run.

        Segment *acquisition* is a template hook (:meth:`_fetch_segment` /
        :meth:`_charge_fetch`): this base class reads map outputs directly
        and charges the cost model's network rate, while
        :class:`~repro.shuffle.service.NetShuffleService` pulls segments
        over real sockets and charges measured bytes and wall time.  The
        MergeManager-style budgeted merge below is shared by both.
        """
        model = self.cost_model
        runs: list[list[SerdePair]] = []
        staged: list[SpillIndex] = []
        in_memory_bytes = 0
        self._prepare(map_results, partition)
        try:
            for result in map_results:
                segment = self._fetch_segment(result, partition)
                self.fetches.append(
                    ShuffleFetch(
                        result.task_id, result.host, segment.stored_length,
                        segment.local,
                    )
                )
                self.bytes_fetched += segment.stored_length
                if not segment.local:
                    self.remote_bytes_fetched += segment.stored_length
                self.fetch_retries += segment.retries
                self.fetch_wait_seconds += segment.wait_seconds
                self._charge_fetch(result, segment)
                runs.append(decode_records(segment.payload))
                in_memory_bytes += len(segment.payload)

                if (
                    self.memory_budget_bytes is not None
                    and self.staging_disk is not None
                    and in_memory_bytes > self.memory_budget_bytes
                    and len(runs) > 1
                ):
                    staged.append(self._stage_to_disk(runs, partition, len(staged)))
                    runs = []
                    in_memory_bytes = 0
        finally:
            self._finish()

        self.counters.incr(Counter.SHUFFLE_BYTES, self.bytes_fetched)

        # Final pass: merge the staged on-disk runs with the in-memory ones.
        final_runs = [run for run in runs if run]
        for index in staged:
            payload = segment_payload(self.staging_disk, index, 0)  # type: ignore[arg-type]
            self.instruments.charge(Op.SHUFFLE, model.spill_read_byte * len(payload))
            final_runs.append(decode_records(payload))

        stats = MergeStats()
        merged = merge_runs(final_runs, stats)
        self.instruments.charge(
            Op.SHUFFLE,
            model.shuffle_merge_byte * stats.bytes_in
            + model.merge_comparison * stats.comparisons,
        )
        return merged

    # ------------------------------------------------------------------
    # segment-acquisition hooks (overridden by the network shuffle)
    # ------------------------------------------------------------------
    def _prepare(self, map_results: list[MapTaskResult], partition: int) -> None:
        """Called once before any segment is acquired."""

    def _finish(self) -> None:
        """Called once after the last segment (even on failure)."""

    def _is_local(self, result: MapTaskResult) -> bool:
        return (
            self.reduce_host is not None
            and result.host is not None
            and result.host == self.reduce_host
        )

    def _fetch_segment(self, result: MapTaskResult, partition: int) -> FetchedSegment:
        """Acquire one map output's segment by direct in-process read."""
        entry = result.output_index.entry(partition)
        payload = segment_payload(result.disk, result.output_index, partition)
        return FetchedSegment(
            payload=payload, stored_length=entry.length, local=self._is_local(result)
        )

    def _charge_fetch(self, result: MapTaskResult, segment: FetchedSegment) -> None:
        """Charge the modelled transfer: the wire carries the *stored*
        (possibly compressed) bytes, and the reduce side pays
        decompression CPU to recover records."""
        model = self.cost_model
        if not segment.local:
            self.instruments.charge(Op.SHUFFLE, model.net_byte * segment.stored_length)
        if result.output_index.codec is not None:
            self.instruments.charge(
                Op.SHUFFLE, model.decompress_byte * len(segment.payload)
            )

    def _stage_to_disk(
        self, runs: list[list[SerdePair]], partition: int, pass_index: int
    ) -> SpillIndex:
        """Merge the current in-memory runs once and write them to the
        reducer's local disk (one single-partition spill file)."""
        assert self.staging_disk is not None
        model = self.cost_model
        stats = MergeStats()
        merged = merge_runs([run for run in runs if run], stats)
        index = write_spill(
            self.staging_disk,
            f"reduce.p{partition}.stage{pass_index}",
            [merged],
        )
        self.instruments.charge(
            Op.SHUFFLE,
            model.shuffle_merge_byte * stats.bytes_in
            + model.merge_comparison * stats.comparisons
            + model.spill_write_byte * index.total_bytes,
        )
        self.disk_merge_passes += 1
        return index
