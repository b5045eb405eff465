"""Spill files and final map-output files.

A *spill* is one sorted, combined snapshot of the in-memory buffer,
written to local disk as ``P`` back-to-back partition segments plus an
index recording, for each partition: byte offset, byte length, record
count, and a CRC32 of the stored bytes (validated on every read, as
Hadoop's IFile checksums are).  The end-of-task merge reads segments
back per partition and produces a final map-output file with the
identical structure (Hadoop's ``file.out`` + ``file.out.index``);
reducers then fetch exactly their segment.

Record payloads use the framing of :mod:`repro.io.records`, and records
inside a segment are sorted by raw key bytes.  Segments may optionally
be stored compressed (:mod:`repro.io.compression`) — the paper's §VII
"more efficient on-disk data representations" extension; the index
remembers the codec so readers are configuration-free.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from ..errors import DiskError, SerdeError
from ..faults.runtime import corrupt_spill_read, torn_spill_write
from ..serde.writable import SerdePair
from .blockdisk import LocalDisk
from .compression import Codec, decode_segment, encode_segment
from .records import decode_records, encode_records


@dataclass(frozen=True)
class SegmentIndexEntry:
    """Location of one partition's segment inside a spill file."""

    partition: int
    offset: int
    length: int  # stored (possibly compressed) bytes
    records: int
    raw_length: int = -1  # uncompressed payload bytes (== length when raw)
    crc: int = 0

    @property
    def uncompressed_length(self) -> int:
        return self.raw_length if self.raw_length >= 0 else self.length


@dataclass(frozen=True)
class SpillIndex:
    """Index of all partition segments of one spill file."""

    path: str
    entries: tuple[SegmentIndexEntry, ...]
    codec: str | None = None  # None => raw record frames

    @property
    def num_partitions(self) -> int:
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        """Stored bytes (what disk and network actually carry)."""
        return sum(entry.length for entry in self.entries)

    @property
    def total_raw_bytes(self) -> int:
        """Uncompressed payload bytes."""
        return sum(entry.uncompressed_length for entry in self.entries)

    @property
    def total_records(self) -> int:
        return sum(entry.records for entry in self.entries)

    def entry(self, partition: int) -> SegmentIndexEntry:
        if not 0 <= partition < len(self.entries):
            raise DiskError(
                f"partition {partition} out of range for spill {self.path!r} "
                f"with {len(self.entries)} partitions"
            )
        return self.entries[partition]


def write_spill(
    disk: LocalDisk,
    path: str,
    partitions: Sequence[Sequence[SerdePair]],
    codec: Codec | None = None,
) -> SpillIndex:
    """Write one spill: a sorted record run per partition.

    *partitions* is indexed by partition number; each element holds
    serialized records already sorted by key bytes (the writer trusts,
    and tests verify, that sorting happened upstream).  With a *codec*,
    each partition segment is compressed independently so reducers can
    still fetch exactly their slice.
    """
    torn_spill_write(path)  # fault point: writer may die before the spill lands
    entries: list[SegmentIndexEntry] = []
    with disk.create(path) as writer:
        for partition, records in enumerate(partitions):
            offset = writer.tell()
            raw = encode_records(records)
            stored = encode_segment(codec, raw) if codec is not None else raw
            writer.write(stored)
            entries.append(
                SegmentIndexEntry(
                    partition=partition,
                    offset=offset,
                    length=len(stored),
                    records=len(records),
                    raw_length=len(raw),
                    crc=zlib.crc32(stored),
                )
            )
    return SpillIndex(
        path=path,
        entries=tuple(entries),
        codec=codec.name if codec is not None else None,
    )


def _read_validated(disk: LocalDisk, index: SpillIndex, partition: int) -> bytes:
    entry = index.entry(partition)
    with disk.open(index.path) as reader:
        reader.seek(entry.offset)
        stored = reader.read(entry.length)
    stored = corrupt_spill_read(index.path, stored)  # fault point (pre-CRC)
    if zlib.crc32(stored) != entry.crc:
        raise SerdeError(
            f"checksum mismatch reading {index.path!r} partition {partition}: "
            "the spill file was corrupted"
        )
    return stored


def read_segment(disk: LocalDisk, index: SpillIndex, partition: int) -> list[SerdePair]:
    """The serialized records of one partition segment (CRC-validated,
    transparently decompressed)."""
    return decode_records(segment_payload(disk, index, partition))


def segment_bytes(disk: LocalDisk, index: SpillIndex, partition: int) -> bytes:
    """Raw *stored* bytes of one partition segment — what the shuffle
    actually transfers (compressed when the map side compressed)."""
    return _read_validated(disk, index, partition)


def segment_payload(disk: LocalDisk, index: SpillIndex, partition: int) -> bytes:
    """Uncompressed record-frame bytes of one partition segment."""
    stored = _read_validated(disk, index, partition)
    return decode_segment(stored) if index.codec is not None else stored
