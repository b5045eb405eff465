"""Input formats: turning stored bytes into typed map-input records."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from ..io.linereader import FileSplit, LineRecordReader, compute_splits
from ..serde.numeric import LongWritable
from ..serde.text import Text
from ..serde.writable import Writable

InputRecord = tuple[Writable, Writable, int]
"""(key, value, bytes_consumed) — the byte count drives READ cost charges."""


class InputFormat(ABC):
    """Describes a job's input: how to split it and how to read a split."""

    @abstractmethod
    def splits(self) -> list[FileSplit]:
        """The byte-range splits, one map task each."""

    @abstractmethod
    def record_reader(self, split: FileSplit) -> Iterator[InputRecord]:
        """Iterate the typed records of one split."""

    @abstractmethod
    def total_bytes(self) -> int:
        """Total input size in bytes."""


class TextInput(InputFormat):
    """Line-oriented text input (Hadoop's ``TextInputFormat``).

    Keys are byte offsets (:class:`LongWritable`), values are line
    contents (:class:`Text`).  The data is held in memory; the cluster
    layer materializes DFS reads into this form before running tasks.
    """

    def __init__(
        self,
        data: bytes,
        split_size: int | None = None,
        path: str = "input.txt",
        split_hosts: list[tuple[str, ...]] | None = None,
    ) -> None:
        self.data = data
        self.path = path
        self.split_size = split_size or max(1, len(data))
        self._split_hosts = split_hosts

    def splits(self) -> list[FileSplit]:
        raw = compute_splits(self.path, len(self.data), self.split_size)
        if self._split_hosts is None:
            return raw
        return [
            FileSplit(s.path, s.offset, s.length, self._split_hosts[i])
            if i < len(self._split_hosts)
            else s
            for i, s in enumerate(raw)
        ]

    def record_reader(self, split: FileSplit) -> Iterator[InputRecord]:
        reader = LineRecordReader(self.data, split)
        previous_consumed = 0
        for offset, line in reader:
            consumed = reader.bytes_consumed - previous_consumed
            previous_consumed = reader.bytes_consumed
            yield LongWritable(offset), Text(line), consumed

    def total_bytes(self) -> int:
        return len(self.data)


class RecordListInput(InputFormat):
    """In-memory typed records, pre-split — convenient for unit tests and
    for feeding generated structured data without a text round-trip."""

    def __init__(
        self,
        splits_records: list[list[tuple[Writable, Writable]]],
        bytes_per_record: int = 64,
        path: str = "records.bin",
    ) -> None:
        if not splits_records:
            raise ValueError("need at least one split")
        self._records = splits_records
        self.bytes_per_record = bytes_per_record
        self.path = path

    def splits(self) -> list[FileSplit]:
        out: list[FileSplit] = []
        offset = 0
        for records in self._records:
            length = max(1, len(records) * self.bytes_per_record)
            out.append(FileSplit(self.path, offset, length))
            offset += length
        return out

    def record_reader(self, split: FileSplit) -> Iterator[InputRecord]:
        index = 0
        offset = 0
        for records in self._records:
            if offset == split.offset:
                break
            offset += max(1, len(records) * self.bytes_per_record)
            index += 1
        else:
            raise ValueError(f"unknown split {split!r}")
        for key, value in self._records[index]:
            size = key.serialized_size() + value.serialized_size()
            yield key, value, max(size, 1)

    def total_bytes(self) -> int:
        return sum(max(1, len(r) * self.bytes_per_record) for r in self._records)
