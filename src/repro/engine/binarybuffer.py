"""The map-output spill buffer: per-partition runs, a stable run sort.

Models Hadoop's ``MapOutputBuffer``: serialized map-output records
accumulate in a bounded byte budget ``M`` (``repro.io.sort.buffer.bytes``);
when occupancy crosses the current *spill threshold* ``x·M`` a spill is
cut — the buffered records are sorted by (partition, key bytes),
combined, and written to local disk, freeing the space.

Records are bucketed by partition as they arrive, as Skywriting's
``PartialHashOutputCollector`` does: each ``(key bytes, value bytes)``
pair is appended to its partition's *run* list, and its partition to an
*arrival* list, from which :class:`BinarySpill` rebuilds arrival order
(iteration, exact comparison counting).

Occupancy is tracked as Hadoop tracks it — serialized payload bytes plus
:data:`RECORD_METADATA_BYTES` per record (its kvindex entry) against the
capacity.  Circularity and the packed layout are irrelevant to dataflow
and cost; what matters — and is faithfully modelled — is the byte
budget, the threshold, and the content of each spill.

Sorting is the merge's idiom (:mod:`repro.io.merger`):
:meth:`BinarySpill.sorted_runs` sorts each run once with a stable C
sort on the key bytes.  Bucketing by partition first and sorting stably
by key second is exactly a stable sort on ``(partition, key bytes)``:
equal keys keep their insertion order
(``tests/engine/test_binarybuffer_properties.py``).

Comparison accounting has two modes, selected by
``repro.instrument.exact.comparisons`` (:meth:`BinarySpill.sort_stats`);
neither changes the order, which always comes from ``sorted_runs``:

* ``model`` (default): charge ``n · log2(n)`` comparisons, the standard
  comparison-sort cost.
* ``exact``: sort the records, in arrival order, through a counting
  comparator and charge the comparisons it saw (slower; used by
  calibration tests to validate that the model is a faithful stand-in).

Hot-path contract: :class:`~repro.engine.collector.StandardCollector`
fuses the append path into its collect loop by writing
``_runs``/``_arrival``/``_occupancy`` directly — those attribute names
and their meanings are part of this class's internal API; change them
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import log2
from operator import itemgetter
from typing import Iterator

from ..errors import SpillBufferError
from ..serde.raw import memcmp
from ..serde.writable import SerdePair

RECORD_METADATA_BYTES = 16
"""Accounting overhead per buffered record (Hadoop's kvindex entry)."""

_KEY_PREVIEW_BYTES = 64

#: Hadoop caps ``io.sort.mb`` so that kvindex offsets stay uint32.
_MAX_CAPACITY = 0xFFFFFFFF

_KEY = itemgetter(0)


def oversized_record_message(
    partition: int, key: bytes, accounted_bytes: int, capacity_bytes: int
) -> str:
    """Error text for a record that can never fit the spill buffer.

    Identifies the offending record (partition and a key preview) so the
    failure is actionable — "some record was too big" is useless when a
    job emits millions of them.  Shared by the buffer's own ``append``
    and the collector's fused hot loop, so both fail identically.
    """
    preview = key[:_KEY_PREVIEW_BYTES]
    ellipsis = "..." if len(key) > _KEY_PREVIEW_BYTES else ""
    return (
        f"single record (partition {partition}, key {preview!r}{ellipsis}) of "
        f"{accounted_bytes} accounted bytes (payload + {RECORD_METADATA_BYTES}-byte "
        f"kvindex metadata) exceeds the whole buffer capacity of {capacity_bytes} "
        f"bytes; raise repro.io.sort.buffer.bytes or emit smaller records"
    )


@dataclass
class SortStats:
    """What one spill sort did."""

    records: int = 0
    comparisons: float = 0.0
    bytes_moved: int = 0


@dataclass
class BinarySpill:
    """One drained buffer-load: its partition runs, each in arrival
    order, and the partition of every record in arrival order."""

    runs: list[list[SerdePair]]
    arrival: list[int]
    payload_bytes: int

    @property
    def record_count(self) -> int:
        return len(self.arrival)

    def __iter__(self) -> Iterator[tuple[int, bytes, bytes]]:
        cursors = [iter(run) for run in self.runs]
        for partition in self.arrival:
            yield (partition, *next(cursors[partition]))

    # ------------------------------------------------------------------
    def sorted_runs(self, num_partitions: int) -> list[list[SerdePair]]:
        """One ``(key, value)`` run per partition, sorted by key bytes.

        One stable sort per run, so equal keys keep arrival order; the
        spill's own runs are left in arrival order.
        """
        runs = [sorted(run, key=_KEY) for run in self.runs]
        runs.extend([] for _ in range(num_partitions - len(runs)))
        return runs

    def sort_stats(self, exact_comparisons: bool = False) -> SortStats:
        """What ordering this spill costs, for the SORT charge: the
        modelled ``n · log2(n)`` comparisons (or, in exact mode, the
        count a counting comparator saw) and the payload bytes moved."""
        n = self.record_count
        stats = SortStats(records=n)
        if n > 1:
            stats.bytes_moved = self.payload_bytes
            stats.comparisons = self._count_comparisons() if exact_comparisons else n * log2(n)
        return stats

    def _count_comparisons(self) -> float:
        """Comparisons Timsort asks for when the records, entering in
        arrival order, are sorted by ``(partition, key bytes)``."""
        count = 0

        def compare(a: tuple, b: tuple) -> int:
            nonlocal count
            count += 1
            if a[0] != b[0]:
                return -1 if a[0] < b[0] else 1
            return memcmp(a[1], b[1])

        sorted(self, key=cmp_to_key(compare))
        return float(count)


class BinarySpillBuffer:
    """Bounded accumulation buffer for serialized map output.

    An append is two list appends — the record to its partition's run,
    the partition to the arrival list — and one occupancy add.  Runs for
    *num_partitions* are made up front; :meth:`append` adds any higher
    partition's run on demand.
    """

    def __init__(self, capacity_bytes: int, num_partitions: int = 1) -> None:
        if capacity_bytes <= 0:
            raise SpillBufferError(f"buffer capacity must be positive, got {capacity_bytes}")
        if capacity_bytes > _MAX_CAPACITY:
            raise SpillBufferError(
                f"spill buffer capacity {capacity_bytes} exceeds the uint32 "
                f"kvindex offset range ({_MAX_CAPACITY} bytes)"
            )
        self.capacity_bytes = capacity_bytes
        self.num_partitions = num_partitions
        self._reset()

    def _reset(self) -> None:
        self._runs: list[list[SerdePair]] = [[] for _ in range(self.num_partitions)]
        self._arrival: list[int] = []
        self._occupancy = 0

    # ------------------------------------------------------------------
    @property
    def occupancy_bytes(self) -> int:
        return self._occupancy

    @property
    def record_count(self) -> int:
        return len(self._arrival)

    @property
    def payload_bytes(self) -> int:
        """Serialized key + value bytes buffered (occupancy less metadata)."""
        return self._occupancy - RECORD_METADATA_BYTES * len(self._arrival)

    @property
    def is_empty(self) -> bool:
        return not self._arrival

    def occupancy_fraction(self) -> float:
        return self._occupancy / self.capacity_bytes

    # ------------------------------------------------------------------
    def append(self, partition: int, key: bytes, value: bytes) -> None:
        """Buffer one serialized record.

        A single record larger than the whole buffer can never be
        spilled and is rejected (Hadoop raises ``MapBufferTooSmall`` and
        falls back to a direct spill; we surface the error, identifying
        the record — see :func:`oversized_record_message`).
        """
        accounted = len(key) + len(value) + RECORD_METADATA_BYTES
        if accounted > self.capacity_bytes:
            raise SpillBufferError(
                oversized_record_message(partition, key, accounted, self.capacity_bytes)
            )
        runs = self._runs
        runs.extend([] for _ in range(partition + 1 - len(runs)))
        runs[partition].append((key, value))
        self._arrival.append(partition)
        self._occupancy += accounted

    def would_overflow(self, key_len: int, value_len: int) -> bool:
        """Would appending a record of this size exceed capacity?"""
        return (
            self._occupancy + key_len + value_len + RECORD_METADATA_BYTES
            > self.capacity_bytes
        )

    def drain(self) -> BinarySpill:
        """Remove and return all buffered records (a spill's content)."""
        spill = BinarySpill(self._runs, self._arrival, self.payload_bytes)
        self._reset()
        return spill

    def __repr__(self) -> str:
        return (
            f"BinarySpillBuffer({self._occupancy}/{self.capacity_bytes} bytes, "
            f"{self.record_count} records)"
        )
