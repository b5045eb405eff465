"""A real-directory-backed drop-in for :class:`~repro.io.blockdisk.LocalDisk`.

The cluster backend runs map tasks in worker daemons; their spill
files must be visible to the parent (and to reduce tasks on other
daemons) after the task returns, so the in-memory :class:`LocalDisk`
will not do.
:class:`FileDisk` stores each logical file as one real file under a root
directory while keeping the same interface and the same byte-level
traffic accounting, so cost charging and I/O assertions behave
identically.  Instances pickle as (name, root, stats): workers ship
their disk back to the parent, which reads the files the worker wrote.
"""

from __future__ import annotations

import os
from typing import Iterator

from ..errors import DiskError
from ..io.blockdisk import DiskReader, DiskStats


class FileDiskWriter:
    """Append-only writer handle over a real file."""

    __slots__ = ("_disk", "_path", "_file", "_written", "_closed")

    def __init__(self, disk: "FileDisk", path: str, file) -> None:
        self._disk = disk
        self._path = path
        self._file = file
        self._written = 0
        self._closed = False

    def write(self, data: bytes) -> int:
        if self._closed:
            raise DiskError(f"write to closed file {self._path!r}")
        self._file.write(data)
        self._written += len(data)
        self._disk.stats.bytes_written += len(data)
        self._disk.stats.writes += 1
        return len(data)

    def tell(self) -> int:
        return self._written

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()

    def __enter__(self) -> "FileDiskWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FileDisk:
    """LocalDisk's interface over a real directory.

    Reads load the whole file and serve positioned reads from memory via
    the shared :class:`~repro.io.blockdisk.DiskReader`, matching
    LocalDisk's read accounting exactly (spill files are read back in
    full during merges anyway).
    """

    def __init__(self, root: str, name: str = "disk0") -> None:
        self.root = root
        self.name = name
        self.stats = DiskStats()
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    def _real_path(self, path: str) -> str:
        # Logical paths are flat task-scoped names (``job.m0000.spill3``);
        # flatten any separator defensively so nothing escapes the root.
        return os.path.join(self.root, path.replace(os.sep, "_").replace("/", "_"))

    def create(self, path: str, overwrite: bool = False) -> FileDiskWriter:
        real = self._real_path(path)
        if os.path.exists(real) and not overwrite:
            raise DiskError(f"file exists: {path!r}")
        handle = open(real, "wb")
        self.stats.files_created += 1
        return FileDiskWriter(self, path, handle)

    def open(self, path: str) -> DiskReader:
        real = self._real_path(path)
        try:
            with open(real, "rb") as handle:
                data = handle.read()
        except FileNotFoundError as exc:
            raise DiskError(f"no such file: {path!r}") from exc
        return DiskReader(self, path, data)

    def delete(self, path: str) -> None:
        real = self._real_path(path)
        try:
            os.remove(real)
        except FileNotFoundError as exc:
            raise DiskError(f"no such file: {path!r}") from exc
        self.stats.files_deleted += 1

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._real_path(path))

    def size(self, path: str) -> int:
        try:
            return os.path.getsize(self._real_path(path))
        except OSError as exc:
            raise DiskError(f"no such file: {path!r}") from exc

    def list_files(self) -> Iterator[str]:
        return iter(sorted(os.listdir(self.root)))

    def total_bytes_stored(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.root, entry))
            for entry in os.listdir(self.root)
        )

    def __repr__(self) -> str:
        return f"FileDisk({self.name!r}, root={self.root!r})"
