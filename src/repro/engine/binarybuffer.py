"""The map-output spill buffer: packed records, a flat index, an integer sort.

Models Hadoop's ``MapOutputBuffer``: serialized map-output records
accumulate in a bounded byte budget ``M`` (``repro.io.sort.buffer.bytes``);
when occupancy crosses the current *spill threshold* ``x·M`` a spill is
cut — the buffered records are sorted by (partition, key bytes),
combined, and written to local disk, freeing the space.  The layout is
Hadoop's too:

* **record payload** accumulates in one contiguous ``bytearray``
  (``kvbuffer``): key bytes then value bytes, back to back;
* **kvindex** is a parallel flat ``array('I')`` of entries —
  ``(partition, key offset, key len, value offset, value len)`` as five
  ``uint32`` per record — Hadoop's kvmeta quad, plus an explicit value
  length so segments never need re-parsing.  :attr:`BinarySpill.kvindex`
  exposes the same entries as ``struct``-packed little-endian bytes
  (:data:`KVINDEX_STRUCT`) for tools and the self-description contract;
* **sort keys** are computed in one bulk pass at drain time: one
  integer per record packing ``(partition, first 8 key bytes)`` so a
  spill orders itself with a flat integer sort instead of a tuple-key
  object sort.

Occupancy is tracked as Hadoop tracks it — serialized payload bytes plus
:data:`RECORD_METADATA_BYTES` per record (its 16-byte kvindex entry)
against the capacity.  Circularity is irrelevant to dataflow and cost
(only to pointer arithmetic); what matters — and is faithfully modelled
— is the byte budget, the threshold, and the content of each spill.

Sorting: the 8-byte key prefix is zero-right-padded and read big-endian,
which makes it *monotone* with respect to lexicographic byte order
(``a < b`` implies ``pad8(a[:8]) <= pad8(b[:8])``), so a flat sort of
``(partition, prefix, arrival)`` integers is almost the full ordering.
Records agreeing on ``(partition, prefix)`` form contiguous runs that a
fix-up pass re-sorts stably by full key bytes, so equal keys keep their
insertion order — the order a stable sort on ``(partition, key bytes)``
gives (``tests/engine/test_binarybuffer_properties.py``).

Comparison accounting has two modes, selected by
``repro.instrument.exact.comparisons``:

* ``model`` (default): charge ``n · log2(n)`` comparisons, the standard
  comparison-sort cost; the actual sort runs natively (fast).
* ``exact``: run the sort through a counting comparator and charge the
  comparisons actually performed (slower; used by calibration tests to
  validate that the model is a faithful stand-in).

Hot-path contract: :class:`~repro.engine.collector.StandardCollector`
fuses the append path into its collect loop by writing
``_data``/``_meta``/``_occupancy`` directly — those attribute names and
their meanings are part of this class's internal API; change them
together.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from functools import cmp_to_key
from math import log2
from typing import Iterator

from ..errors import SpillBufferError
from ..serde.raw import memcmp
from ..serde.writable import SerdePair

RECORD_METADATA_BYTES = 16
"""Accounting overhead per buffered record (Hadoop's kvindex entry)."""

_KEY_PREVIEW_BYTES = 64


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


KVINDEX_STRUCT = struct.Struct("<IIIII")
"""One kvindex entry: partition, key offset, key len, value offset, value len."""

KVINDEX_ENTRY_BYTES = KVINDEX_STRUCT.size

#: array typecode holding one uint32 per kvindex field.  'I' is 4 bytes
#: on every CPython platform we target; the guard keeps a big-itemsize
#: platform functional (kvindex bytes are repacked portably anyway).
_META_TYPECODE = "I" if array("I").itemsize == 4 else "L"

PREFIX_BYTES = 8
"""Key bytes folded into the precomputed integer sort key."""

#: kvindex offsets are uint32: a buffer this large cannot be indexed.
_MAX_ADDRESSABLE = 0xFFFFFFFF


def key_prefix(key: bytes) -> int:
    """First 8 key bytes, zero-right-padded, as a big-endian integer.

    Right-padding keeps the mapping monotone across key lengths
    (``b"ab" < b"b"`` and ``pad8(b"ab") < pad8(b"b")``); keys sharing a
    prefix — including short keys with trailing NULs — tie here and are
    settled by the full-key fix-up pass.
    """
    head = key[:PREFIX_BYTES]
    if len(head) < PREFIX_BYTES:
        return int.from_bytes(head, "big") << ((PREFIX_BYTES - len(head)) * 8)
    return int.from_bytes(head, "big")


def pack_kvindex_entry(
    partition: int, key_off: int, key_len: int, val_off: int, val_len: int
) -> bytes:
    """Pack one kvindex entry (exposed for tests and tools)."""
    return KVINDEX_STRUCT.pack(partition, key_off, key_len, val_off, val_len)


def unpack_kvindex_entry(kvindex: bytes | bytearray, seq: int) -> tuple[int, int, int, int, int]:
    """Unpack entry *seq* of a packed kvindex."""
    return KVINDEX_STRUCT.unpack_from(kvindex, seq * KVINDEX_ENTRY_BYTES)


@dataclass
class BinarySpill:
    """One drained buffer-load: frozen payload bytes plus its kvindex."""

    data: bytes
    meta: "array[int]"  # flat uint32s, 5 per record (see KVINDEX_STRUCT order)
    sortkeys: list[int]
    payload_bytes: int

    @property
    def record_count(self) -> int:
        return len(self.sortkeys)

    @property
    def kvindex(self) -> bytes:
        """The kvindex as ``struct``-packed little-endian bytes — the
        self-describing on-disk form (:data:`KVINDEX_STRUCT` per entry)."""
        if _META_TYPECODE == "I" and sys.byteorder == "little":
            return self.meta.tobytes()
        meta = self.meta
        return b"".join(
            KVINDEX_STRUCT.pack(*meta[base : base + 5])
            for base in range(0, len(meta), 5)
        )

    def entry(self, seq: int) -> tuple[int, bytes, bytes]:
        """Record *seq* in arrival order as ``(partition, key, value)``."""
        meta = self.meta
        base = 5 * seq
        data = self.data
        key_off = meta[base + 1]
        val_off = meta[base + 3]
        return (
            meta[base],
            data[key_off : key_off + meta[base + 2]],
            data[val_off : val_off + meta[base + 4]],
        )

    def key_of(self, seq: int) -> bytes:
        meta = self.meta
        base = 5 * seq
        key_off = meta[base + 1]
        return self.data[key_off : key_off + meta[base + 2]]

    def __iter__(self) -> Iterator[tuple[int, bytes, bytes]]:
        return (self.entry(seq) for seq in range(self.record_count))

    # ------------------------------------------------------------------
    def sort(self, exact_comparisons: bool = False) -> tuple[list[int], SortStats]:
        """Order of records by ``(partition, key bytes)``; returns
        ``(arrival sequence numbers in sorted order, stats)``.

        The stats feed the SORT charge: the modelled ``n · log2(n)``
        comparisons (or, in exact mode, the count a counting comparator
        saw) and the payload bytes moved.
        """
        n = self.record_count
        stats = SortStats(records=n)
        if n <= 1:
            return list(range(n)), stats
        stats.bytes_moved = self.payload_bytes

        if exact_comparisons:
            return self._sort_exact(stats)

        # Pack (sortkey, arrival) into one integer per record: the sort
        # runs over flat ints with no key function, and the arrival
        # number in the low bits keeps it stable by construction.
        packed = [(sortkey << 32) | seq for seq, sortkey in enumerate(self.sortkeys)]
        packed.sort()
        order = [p & 0xFFFFFFFF for p in packed]

        # Fix-up: records tying on (partition, prefix) are re-sorted by
        # full key bytes.  list.sort is stable, so equal full keys keep
        # arrival order.
        i = 0
        while i < n:
            group = packed[i] >> 32
            j = i + 1
            while j < n and (packed[j] >> 32) == group:
                j += 1
            if j - i > 1:
                run = order[i:j]
                run.sort(key=self.key_of)
                order[i:j] = run
            i = j

        stats.comparisons = n * log2(n)
        return order, stats

    def _sort_exact(self, stats: SortStats) -> tuple[list[int], SortStats]:
        """Counting-comparator sort: records enter in arrival order and
        every comparison Timsort asks for is counted."""
        entries = [self.entry(seq) + (seq,) for seq in range(self.record_count)]
        count = 0

        def compare(a: tuple, b: tuple) -> int:
            nonlocal count
            count += 1
            if a[0] != b[0]:
                return -1 if a[0] < b[0] else 1
            return memcmp(a[1], b[1])

        entries.sort(key=cmp_to_key(compare))
        stats.comparisons = float(count)
        return [entry[3] for entry in entries], stats

    def partition_runs(self, order: list[int], num_partitions: int) -> list[list[SerdePair]]:
        """Slice the records, taken in sorted *order*, into one key-sorted
        ``(key, value)`` run per partition."""
        partitions: list[list[SerdePair]] = [[] for _ in range(num_partitions)]
        appends = [run.append for run in partitions]
        data = self.data
        meta = self.meta
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

    def key_groups(self, order: list[int]) -> list[tuple[int, bytes, list[bytes]]]:
        """The records, taken in sorted *order*, as equal-``(partition,
        key)`` runs: ``(partition, key, [value, ...])`` per run — what a
        combiner consumes, with no per-record pair in between."""
        groups: list[tuple[int, bytes, list[bytes]]] = []
        data = self.data
        meta = self.meta
        group_partition = -1
        group_key = None
        values: list[bytes] = []
        for seq in order:
            base = 5 * seq
            key_off = meta[base + 1]
            key = data[key_off : key_off + meta[base + 2]]
            val_off = meta[base + 3]
            value = data[val_off : val_off + meta[base + 4]]
            if key == group_key and meta[base] == group_partition:
                values.append(value)
            else:
                group_partition, group_key, values = meta[base], key, [value]
                groups.append((group_partition, key, values))
        return groups


class BinarySpillBuffer:
    """Bounded packed accumulation buffer for serialized map output.

    Appends are byte copies into a growing ``bytearray`` plus five ints
    into a flat ``array``, with no per-record object construction and no
    per-record sort-key arithmetic (sort keys are computed in one bulk
    pass when the buffer drains).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise SpillBufferError(f"buffer capacity must be positive, got {capacity_bytes}")
        if capacity_bytes > _MAX_ADDRESSABLE:
            raise SpillBufferError(
                f"binary buffer capacity {capacity_bytes} exceeds the uint32 "
                f"kvindex offset range ({_MAX_ADDRESSABLE} bytes)"
            )
        self.capacity_bytes = capacity_bytes
        self._data = bytearray()
        self._meta = array(_META_TYPECODE)
        self._occupancy = 0

    # ------------------------------------------------------------------
    @property
    def occupancy_bytes(self) -> int:
        return self._occupancy

    @property
    def record_count(self) -> int:
        return len(self._meta) // 5

    @property
    def is_empty(self) -> bool:
        return not self._meta

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
        data = self._data
        key_off = len(data)
        data += key
        val_off = len(data)
        data += value
        self._meta.extend((partition, key_off, len(key), val_off, len(value)))
        self._occupancy += accounted

    def would_overflow(self, key_len: int, value_len: int) -> bool:
        """Would appending a record of this size exceed capacity?"""
        return (
            self._occupancy + key_len + value_len + RECORD_METADATA_BYTES
            > self.capacity_bytes
        )

    def drain(self) -> BinarySpill:
        """Remove and return all buffered records (a spill's content).

        Sort keys are computed here, one tight pass over the kvindex —
        per-record work deferred off the collect hot loop."""
        data = bytes(self._data)
        meta = self._meta
        from_bytes = int.from_bytes
        sortkeys: list[int] = []
        push = sortkeys.append
        for base in range(0, len(meta), 5):
            key_off = meta[base + 1]
            key_len = meta[base + 2]
            if key_len >= PREFIX_BYTES:
                prefix = from_bytes(data[key_off : key_off + PREFIX_BYTES], "big")
            else:
                prefix = from_bytes(data[key_off : key_off + key_len], "big") << (
                    (PREFIX_BYTES - key_len) * 8
                )
            push((meta[base] << 64) | prefix)
        spill = BinarySpill(
            data=data,
            meta=meta,
            sortkeys=sortkeys,
            payload_bytes=self._occupancy - RECORD_METADATA_BYTES * len(sortkeys),
        )
        self._data = bytearray()
        self._meta = array(_META_TYPECODE)
        self._occupancy = 0
        return spill

    def __repr__(self) -> str:
        return (
            f"BinarySpillBuffer({self._occupancy}/{self.capacity_bytes} bytes, "
            f"{self.record_count} records)"
        )
