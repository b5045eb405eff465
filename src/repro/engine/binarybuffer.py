"""The map-output spill buffer: packed records, a flat index, a stable run sort.

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
  (:data:`KVINDEX_STRUCT`) for tools and the self-description contract.

Occupancy is tracked as Hadoop tracks it — serialized payload bytes plus
:data:`RECORD_METADATA_BYTES` per record (its 16-byte kvindex entry)
against the capacity.  Circularity is irrelevant to dataflow and cost
(only to pointer arithmetic); what matters — and is faithfully modelled
— is the byte budget, the threshold, and the content of each spill.

Sorting is the merge's idiom (:mod:`repro.io.merger`):
:meth:`BinarySpill.sorted_runs` slices every record, in arrival order,
into its partition's ``(key, value)`` list in one pass over the kvindex,
then sorts each list once with a stable C ``list.sort`` on the key
bytes.  Bucketing by partition first and sorting stably by key second
is exactly a stable sort on ``(partition, key bytes)``: equal keys keep
their insertion order (``tests/engine/test_binarybuffer_properties.py``).

Comparison accounting has two modes, selected by
``repro.instrument.exact.comparisons`` (:meth:`BinarySpill.sort_stats`);
neither changes the order, which always comes from ``sorted_runs``:

* ``model`` (default): charge ``n · log2(n)`` comparisons, the standard
  comparison-sort cost.
* ``exact``: sort the records through a counting comparator and charge
  the comparisons it saw (slower; used by calibration tests to validate
  that the model is a faithful stand-in).

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
from operator import itemgetter
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

#: kvindex offsets are uint32: a buffer this large cannot be indexed.
_MAX_ADDRESSABLE = 0xFFFFFFFF

_KEY = itemgetter(0)


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
    payload_bytes: int

    @property
    def record_count(self) -> int:
        return len(self.meta) // 5

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

    def __iter__(self) -> Iterator[tuple[int, bytes, bytes]]:
        return (self.entry(seq) for seq in range(self.record_count))

    # ------------------------------------------------------------------
    def sorted_runs(self, num_partitions: int) -> list[list[SerdePair]]:
        """One ``(key, value)`` run per partition, sorted by key bytes.

        One pass over the kvindex slices each record, in arrival order,
        into its partition's list; one stable ``list.sort`` per list then
        orders it, so equal keys keep arrival order.
        """
        runs: list[list[SerdePair]] = [[] for _ in range(num_partitions)]
        appends = [run.append for run in runs]
        data = self.data
        fields = iter(self.meta)
        for partition, key_off, key_len, val_off, val_len in zip(
            fields, fields, fields, fields, fields
        ):
            appends[partition](
                (data[key_off : key_off + key_len], data[val_off : val_off + val_len])
            )
        for run in runs:
            run.sort(key=_KEY)
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
    """Bounded packed accumulation buffer for serialized map output.

    Appends are byte copies into a growing ``bytearray`` plus five ints
    into a flat ``array``, with no per-record object construction.
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
        """Remove and return all buffered records (a spill's content)."""
        spill = BinarySpill(
            data=bytes(self._data),
            meta=self._meta,
            payload_bytes=self._occupancy - RECORD_METADATA_BYTES * self.record_count,
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
