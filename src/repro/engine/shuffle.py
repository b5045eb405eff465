"""The shuffle: moving sorted map-output segments to reducers.

The paper (Table I / Section II-A) treats shuffle as pure abstraction
cost: "No user code is involved; any time spent in shuffle is pure
overhead imposed by the MapReduce abstraction."  We charge every byte
fetched at the network rate (refined by the cluster simulator's
topology for same-host fetches) plus the reduce-side merge work.

One :class:`ShuffleService` serves both shuffle modes: segments come
from direct in-process reads (``mem``) or from a
:class:`~repro.shuffle.fetcher.FetcherPool` over real TCP (``net``),
and both are priced by the same rule, so a job's ledger does not
depend on the transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..io.blockdisk import LocalDisk
from ..io.merger import MergeStats, merge_runs
from ..io.records import decode_records
from ..io.spillfile import SpillIndex, segment_payload, write_spill
from ..serde.writable import SerdePair
from .costmodel import CostModel
from .counters import Counter, Counters
from .instrumentation import Op, TaskInstruments
from .maptask import MapTaskResult

if TYPE_CHECKING:
    from ..shuffle.fetcher import FetcherPool, FetchResult


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
        self.bytes_fetched = 0
        self.remote_bytes_fetched = 0
        self.fetch_retries = 0
        self.fetch_wait_seconds = 0.0

    def fetch_and_merge(
        self,
        map_results: list[MapTaskResult],
        partition: int,
        pool: "FetcherPool | None" = None,
    ) -> list[SerdePair]:
        """Fetch this partition's segment from every map output, in map
        order, and k-way merge them into a single sorted record run.

        Segments are read directly from the map outputs, or, given a
        *pool*, fetched over TCP from the shuffle servers (the pool is
        closed on every exit).  Either way the modelled wire carries the
        *stored* (possibly compressed) bytes of every cross-host segment
        and the reduce side pays decompression CPU to recover records.
        """
        model = self.cost_model
        runs: list[list[SerdePair]] = []
        staged: list[SpillIndex] = []
        in_memory_bytes = 0
        try:
            if pool is not None:
                pool.start()
            for result in map_results:
                index = result.output_index
                if pool is None:
                    payload = segment_payload(result.disk, index, partition)
                    stored = index.entry(partition).length
                else:
                    payload, stored = self._record_fetch(pool.next_result())
                self.bytes_fetched += stored
                if not self._is_local(result):
                    self.remote_bytes_fetched += stored
                    self.instruments.charge(Op.SHUFFLE, model.net_byte * stored)
                if index.codec is not None:
                    self.instruments.charge(
                        Op.SHUFFLE, model.decompress_byte * len(payload)
                    )
                runs.append(decode_records(payload))
                in_memory_bytes += len(payload)

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
            if pool is not None:
                pool.close()

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

    def _is_local(self, result: MapTaskResult) -> bool:
        return (
            self.reduce_host is not None
            and result.host is not None
            and result.host == self.reduce_host
        )

    def _record_fetch(self, fetched: "FetchResult") -> tuple[bytes, int]:
        """Keep a network fetch's measurements next to the model, not in
        it: seconds, bytes and wait go to the ledger's samples, attempts
        and backoff to the counters.  Returns the payload and the stored
        length."""
        ledger = self.instruments.ledger
        ledger.add_sample("shuffle.fetch_seconds", fetched.seconds)
        ledger.add_sample("shuffle.fetch_bytes", float(fetched.stored_length))
        if fetched.wait_seconds:
            ledger.add_sample("shuffle.wait_seconds", fetched.wait_seconds)
        self.fetch_retries += fetched.retries
        self.fetch_wait_seconds += fetched.wait_seconds
        self.counters.incr(Counter.SHUFFLE_FETCHES)
        self.counters.incr(Counter.SHUFFLE_FETCH_RETRIES, fetched.retries)
        self.counters.incr(Counter.SHUFFLE_BACKOFF_MS, int(fetched.wait_seconds * 1000))
        return fetched.payload, fetched.stored_length

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
        return index
