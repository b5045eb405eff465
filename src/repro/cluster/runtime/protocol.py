"""The master/worker wire protocol: framed pickles over localhost TCP.

The shuffle wire format's framing (:mod:`repro.shuffle.wire`), with its
own magic so a worker that dials the wrong port fails loudly instead of
confusing a shuffle server::

    +-------+--------+-----------------+---------------------+
    | magic | opcode | payload length  | payload             |
    | 2 B   | 1 B    | 4 B big-endian  | <length> bytes      |
    +-------+--------+-----------------+---------------------+

``magic`` is ``b"RC"`` (Repro Cluster).  Payloads are pickles: unlike
the shuffle protocol (which moves opaque segment bytes between
processes that may disagree about code), both ends of this protocol are
forked from one parent and exchange engine objects — task payloads,
:class:`~repro.engine.maptask.MapTaskResult` s, exceptions.

Connections
-----------
Each worker keeps one long-lived *task channel* to the master (HELLO,
then TASK/RESULT/STATS/BYE), and opens a short-lived connection per
heartbeat (PING -> OK or BYE).  Two channels on purpose: a worker stuck
in a long map attempt still heartbeats from its ping thread, so
liveness and progress are judged independently — exactly Hadoop's
tasktracker split between pings and task status.

Opcodes
-------
``HELLO``  worker -> master: ``{worker_id, host, pid, shuffle_address}``,
           first frame on the task channel; registers the worker.
``PING``   worker -> master (fresh connection): ``{worker_id, seq}``.
``TASK``   master -> worker: ``{task, fetch_results, tag}`` — run one
           attempt of ``task`` (a :class:`~repro.exec.base.Task`);
           ``fetch_results`` is the map outputs a reduce fetches
           (``None`` for a map).
``RESULT`` worker -> master: ``{tag, outcome}`` with the entry points'
           ``(task_id, attempts, result, error)`` outcome tuple.
``STATS``  worker -> master: final shuffle-server snapshot, sent while
           draining on BYE.
``OK``     master -> worker: ping acknowledged.
``BYE``    either direction: orderly shutdown (to a pinging worker it
           means "you have been declared dead: exit").
"""

from __future__ import annotations

import pickle
import socket
from typing import Any

from ...errors import ExecBackendError
from ...shuffle import wire

MAGIC = b"RC"

OP_HELLO = 0x01
OP_PING = 0x02
OP_TASK = 0x10
OP_RESULT = 0x11
OP_STATS = 0x12
OP_OK = 0x20
OP_BYE = 0x21

OP_NAMES = {
    OP_HELLO: "HELLO",
    OP_PING: "PING",
    OP_TASK: "TASK",
    OP_RESULT: "RESULT",
    OP_STATS: "STATS",
    OP_OK: "OK",
    OP_BYE: "BYE",
}


class ProtocolError(ExecBackendError, ConnectionError):
    """A malformed, unexpected or cut-short frame on a master/worker
    channel.  It is a :class:`ConnectionError` too: every reader of a
    channel treats a frame it cannot use as the peer gone."""


def send_msg(sock: socket.socket, opcode: int, obj: Any = None) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    wire.send_frame(sock, opcode, payload, MAGIC, ProtocolError)


def recv_msg(sock: socket.socket) -> tuple[int, Any]:
    opcode, payload = wire.recv_frame(sock, MAGIC, ProtocolError)
    try:
        return opcode, pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - unpickling fails arbitrarily
        raise ProtocolError(f"unpicklable {OP_NAMES.get(opcode, opcode)} payload: {exc!r}") from exc


def connect(address: tuple[str, int], timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
