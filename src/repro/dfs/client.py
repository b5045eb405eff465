"""DFS client: the facade jobs and generators use to read and write files.

A :class:`DfsCluster` bundles one namenode with its datanodes; the
:class:`DfsClient` implements whole-file and ranged reads (choosing the
closest replica), replicated writes, and input-split computation with
locality hints — everything the MapReduce layer needs from storage.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import DfsError
from ..io.linereader import FileSplit
from .datanode import DataNode
from .namenode import FileMeta, NameNode


class DfsCluster:
    """A namenode plus its registered datanodes."""

    def __init__(
        self,
        hosts: Sequence[str],
        block_size: int = 1 << 22,
        replication: int = 3,
    ) -> None:
        if not hosts:
            raise DfsError("a DFS cluster needs at least one host")
        self.namenode = NameNode(block_size, replication)
        self.datanodes: dict[str, DataNode] = {}
        for host in hosts:
            self.namenode.register_datanode(host)
            self.datanodes[host] = DataNode(host)

    def datanode(self, host: str) -> DataNode:
        try:
            return self.datanodes[host]
        except KeyError as exc:
            raise DfsError(f"no such datanode: {host!r}") from exc

    def client(self, local_host: str | None = None) -> "DfsClient":
        return DfsClient(self, local_host)


class DfsClient:
    """Per-host client handle.

    *local_host* (if given) makes writes place their first replica
    locally and reads prefer the local replica — the locality behaviour
    MapReduce tasks rely on.
    """

    def __init__(self, cluster: DfsCluster, local_host: str | None = None) -> None:
        self._cluster = cluster
        self.local_host = local_host
        self.remote_bytes_read = 0
        self.local_bytes_read = 0
        self.read_failovers = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write_file(self, path: str, data: bytes) -> FileMeta:
        """Create *path* with *data*, replicating each block."""
        namenode = self._cluster.namenode
        meta = namenode.create_file(path, len(data), writer_host=self.local_host)
        for block in meta.blocks:
            payload = data[block.offset : block.end]
            for host in block.replicas:
                self._cluster.datanode(host).store_block(block.block_id, payload)
        return meta

    def delete_file(self, path: str) -> None:
        meta = self._cluster.namenode.delete_file(path)
        for block in meta.blocks:
            for host in block.replicas:
                node = self._cluster.datanode(host)
                if node.has_block(block.block_id):
                    node.drop_block(block.block_id)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_file(self, path: str) -> bytes:
        meta = self._cluster.namenode.stat(path)
        return self.read_range(path, 0, meta.size)

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """Read ``[offset, offset+length)``, block by block, preferring the
        local replica of each block."""
        meta = self._cluster.namenode.stat(path)
        if offset < 0 or length < 0 or offset + length > meta.size:
            raise DfsError(
                f"range [{offset}, {offset + length}) outside {path!r} of size {meta.size}"
            )
        out = bytearray()
        end = offset + length
        for block in self._cluster.namenode.blocks_for_range(path, offset, length):
            payload = self._read_block(block.block_id, block.replicas)
            lo = max(offset, block.offset) - block.offset
            hi = min(end, block.end) - block.offset
            out += payload[lo:hi]
        return bytes(out)

    def _read_block(self, block_id, replicas: tuple[str, ...]) -> bytes:
        """Read one block, trying the local replica first and failing
        over through the remaining replicas if one is missing or fails
        digest verification (HDFS clients do the same)."""
        ordered = list(replicas)
        if self.local_host is not None and self.local_host in ordered:
            ordered.remove(self.local_host)
            ordered.insert(0, self.local_host)
        last_error: DfsError | None = None
        for attempt, host in enumerate(ordered):
            try:
                payload = self._cluster.datanode(host).read_block(block_id)
            except DfsError as exc:
                last_error = exc
                continue
            if attempt > 0:
                self.read_failovers += 1
            if host == self.local_host:
                self.local_bytes_read += len(payload)
            else:
                self.remote_bytes_read += len(payload)
            return payload
        raise DfsError(
            f"block {block_id!r} unreadable from all {len(ordered)} replica(s) "
            f"({', '.join(ordered)})"
        ) from last_error

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------
    def compute_splits(self, path: str, split_size: int | None = None) -> list[FileSplit]:
        """Cut *path* into splits (default: one per block) with locality
        hints from the block map."""
        meta = self._cluster.namenode.stat(path)
        split_size = split_size or meta.block_size
        if split_size <= 0:
            raise DfsError(f"split size must be positive, got {split_size}")
        splits: list[FileSplit] = []
        offset = 0
        while meta.size - offset > int(split_size * 1.1):
            hosts = self._cluster.namenode.hosts_for_range(path, offset, split_size)
            splits.append(FileSplit(path, offset, split_size, hosts))
            offset += split_size
        if meta.size - offset > 0:
            hosts = self._cluster.namenode.hosts_for_range(path, offset, meta.size - offset)
            splits.append(FileSplit(path, offset, meta.size - offset, hosts))
        return splits
