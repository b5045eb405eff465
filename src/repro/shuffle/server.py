"""The per-node shuffle server.

One :class:`ShuffleServer` plays the role of Hadoop's per-TaskTracker
``MapOutputServlet``: it owns the map outputs of one simulated host and
serves their partition segments to reducers over localhost TCP.  Map
outputs reach it by in-process registration
(:meth:`ShuffleServer.register`): the serial backend registers
in-memory ``LocalDisk`` outputs with the driver's server, and each
cluster worker daemon registers the ``FileDisk``-backed outputs of the
maps it ran with the server it runs itself, which opens the spill files
when segments are requested.

Every ``GET`` response carries the spill index entry's CRC so the
fetcher can validate the bytes it actually received.  Between lookup
and response the server consults the
:func:`~repro.faults.runtime.shuffle_fault` point, so an installed
``shuffle.*`` fault rule deterministically refuses / drops / truncates
/ delays the selected fraction of fetches.

The server is plain ``socket`` + thread-per-connection: connections are
one-request-one-response and segment counts are small (maps x reduces),
so connection reuse buys nothing at this scale and the code stays
readable.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field

from ..errors import DiskError, SerdeError, ShuffleError
from ..io.blockdisk import LocalDisk
from ..io.spillfile import SpillIndex, segment_bytes
from ..faults.runtime import shuffle_fault
from . import wire


@dataclass(frozen=True)
class ShuffleHostStats:
    """One host's shuffle-serving traffic, for the analysis reports."""

    host: str
    port: int
    bytes_served: int
    requests_served: int
    registrations: int
    faults_injected: dict[str, int] = field(default_factory=dict)
    errors: int = 0

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())


class ShuffleServer:
    """Serves registered map-output segments for one simulated host."""

    def __init__(
        self,
        host_label: str = "localhost",
        bind_host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.host_label = host_label
        self.bind_host = bind_host
        #: Requested listen port (0 = ephemeral).  A clean ``stop()``
        #: releases it, so a successor server can bind the same port —
        #: the restart property the shutdown regression tests pin down.
        self.bind_port = port
        self._outputs: dict[str, tuple[LocalDisk, SpillIndex]] = {}
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._port = -1
        # --- stats (guarded by _lock) ---
        self._bytes_served = 0
        self._requests_served = 0
        self._registrations = 0
        self._faults: dict[str, int] = {}
        self._errors = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShuffleServer":
        if self._listener is not None:
            raise ShuffleError(f"shuffle server for {self.host_label!r} already started")
        self._stopping.clear()  # a stopped server may be started again
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.bind_port))
        listener.listen(64)
        # A blocking accept() does not reliably wake when another thread
        # closes the socket.  stop() wakes it with a connection of its
        # own; the short timeout is only the fallback for when that
        # connection cannot be made.
        listener.settimeout(0.1)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"shuffle-server.{self.host_label}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ShuffleError(f"shuffle server for {self.host_label!r} not started")
        return (self.bind_host, self._port)

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                # Wake the accept loop now rather than at its next poll.
                socket.create_connection(self.address, timeout=1.0).close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for thread in self._handlers:
            thread.join(timeout=5.0)
        self._handlers.clear()
        self._listener = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, task_id: str, index: SpillIndex, disk: LocalDisk) -> None:
        """Register a finished map output served straight from *disk*
        (in-memory or file-backed; the server only reads)."""
        with self._lock:
            self._outputs[task_id] = (disk, index)
            self._registrations += 1

    def registered_tasks(self) -> list[str]:
        with self._lock:
            return sorted(self._outputs)

    def snapshot(self) -> ShuffleHostStats:
        with self._lock:
            return ShuffleHostStats(
                host=self.host_label,
                port=self._port,
                bytes_served=self._bytes_served,
                requests_served=self._requests_served,
                registrations=self._registrations,
                faults_injected=dict(self._faults),
                errors=self._errors,
            )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue  # poll the stop flag
            except OSError:
                break  # listener closed by stop()
            if self._stopping.is_set():
                conn.close()  # stop()'s wake-up call, or a client too late
                break
            thread = threading.Thread(
                target=self._handle, args=(conn,), daemon=True,
                name=f"shuffle-handler.{self.host_label}",
            )
            # Reap finished handlers first so the list is bounded by the
            # number of *live* connections (plus this one), not by the
            # total connections ever served.
            self._handlers = [t for t in self._handlers if t.is_alive()]
            thread.start()
            self._handlers.append(thread)

    def _handle(self, conn: socket.socket) -> None:
        try:
            with conn:
                conn.settimeout(30.0)
                opcode, payload = wire.recv_frame(conn)
                if opcode == wire.OP_GET:
                    self._handle_get(conn, wire.decode_json(payload))
                else:
                    wire.send_json(conn, wire.OP_ERR, {
                        "code": "BADOP",
                        "message": f"unexpected opcode {opcode:#x}",
                    })
        except (ShuffleError, OSError, KeyError, TypeError, ValueError):
            # A dying client mid-write or a malformed frame must never
            # take the server down; the fetcher's retry loop owns recovery.
            with self._lock:
                self._errors += 1

    def _handle_get(self, conn: socket.socket, obj: dict) -> None:
        task_id = obj["task"]
        partition = int(obj["partition"])
        with self._lock:
            entry = self._outputs.get(task_id)
        if entry is None:
            wire.send_json(conn, wire.OP_ERR, {
                "code": "NOTFOUND",
                "message": f"no registered map output {task_id!r} on {self.host_label}",
            })
            return
        disk, index = entry

        fault = shuffle_fault(task_id, partition)
        if fault is not None:
            with self._lock:
                self._faults[fault] = self._faults.get(fault, 0) + 1
        if fault == "refuse":
            wire.send_json(conn, wire.OP_ERR, {
                "code": "BUSY",
                "message": f"{self.host_label} refusing {task_id}/p{partition} (injected)",
            })
            return
        if fault == "drop":
            return  # close without a single response byte: mid-stream EOF

        try:
            stored = segment_bytes(disk, index, partition)
            segment = index.entry(partition)
        except (DiskError, SerdeError) as exc:
            wire.send_json(conn, wire.OP_ERR, {"code": "READFAIL", "message": str(exc)})
            with self._lock:
                self._errors += 1
            return

        header = {
            "length": segment.length,
            "raw_length": segment.raw_length,
            "records": segment.records,
            "crc": segment.crc,
            "codec": index.codec,
        }
        body = stored
        if fault == "truncate":
            # Keep the framing honest but cut the stream: the declared
            # lengths and CRC describe the true bytes, the body does not.
            half = len(stored) // 2
            body = stored[:half] + b"\x00" * (len(stored) - half)
        wire.send_frame(conn, wire.OP_DATA, wire.encode_data(header, body))
        with self._lock:
            self._requests_served += 1
            self._bytes_served += len(body)

    def __repr__(self) -> str:
        return f"ShuffleServer({self.host_label!r}, port={self._port})"
