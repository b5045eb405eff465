"""The shuffle wire format: framed messages over TCP.

Every message is one frame::

    +-------+--------+-----------------+---------------------+
    | magic | opcode | payload length  | payload             |
    | 2 B   | 1 B    | 4 B big-endian  | <length> bytes      |
    +-------+--------+-----------------+---------------------+

``magic`` is ``b"RS"`` (Repro Shuffle, protocol version folded into the
opcode space); the cluster runtime's master/worker protocol
(:mod:`repro.cluster.runtime.protocol`) sends the same frames under
``b"RC"``.  Control payloads are UTF-8 JSON; the ``DATA`` payload is
a 4-byte big-endian JSON-header length, the JSON segment header
(``length`` / ``raw_length`` / ``records`` / ``crc`` / ``codec``), and
then the stored segment bytes exactly as they sit in the spill file.
The fetcher re-checks the header CRC over the received bytes, so a
mid-stream truncation or bit flip is detected client-side even though
framing still parses (the fault injector exploits exactly this).

Opcodes
-------
``GET``   reducer -> server: request one partition segment.
``DATA``  server -> client: the requested segment.
``ERR``   server -> client: JSON ``{"code", "message"}``; ``BUSY`` is the
          fault injector's explicit refusal, ``NOTFOUND`` an unknown map
          output — both are retryable from the fetcher's point of view.
"""

from __future__ import annotations

import json
import socket

from ..errors import ShuffleTransportError

MAGIC = b"RS"
HEADER_LEN = len(MAGIC) + 1 + 4

OP_GET = 0x02
OP_DATA = 0x11
OP_ERR = 0x20

OP_NAMES = {
    OP_GET: "GET",
    OP_DATA: "DATA",
    OP_ERR: "ERR",
}

#: Frames beyond this are garbage or abuse; fail fast instead of
#: allocating unbounded buffers (1 GiB dwarfs any segment we produce).
MAX_FRAME_BYTES = 1 << 30


def read_exact(
    sock: socket.socket, length: int, error: type[Exception] = ShuffleTransportError
) -> bytes:
    """Read exactly *length* bytes or raise *error* on a mid-stream EOF."""
    chunks: list[bytes] = []
    remaining = length
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise error(
                f"connection closed {remaining} bytes short of a "
                f"{length}-byte read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(
    sock: socket.socket,
    opcode: int,
    payload: bytes = b"",
    magic: bytes = MAGIC,
    error: type[Exception] = ShuffleTransportError,
) -> None:
    """Send one frame; *magic* and *error* let the cluster runtime's
    protocol share the framing under its own magic and error class."""
    if len(payload) > MAX_FRAME_BYTES:
        raise error(f"refusing to send a {len(payload)}-byte frame")
    sock.sendall(magic + bytes((opcode,)) + len(payload).to_bytes(4, "big") + payload)


def recv_frame(
    sock: socket.socket,
    magic: bytes = MAGIC,
    error: type[Exception] = ShuffleTransportError,
) -> tuple[int, bytes]:
    """Receive one frame as ``(opcode, payload)``; a wrong magic, an
    absurd length or a mid-frame EOF raises *error*."""
    header = read_exact(sock, HEADER_LEN, error)
    if header[: len(magic)] != magic:
        raise error(f"bad frame magic {header[:len(magic)]!r}")
    opcode = header[len(magic)]
    length = int.from_bytes(header[len(magic) + 1 :], "big")
    if length > MAX_FRAME_BYTES:
        raise error(f"frame declares absurd length {length}")
    return opcode, read_exact(sock, length, error)


def send_json(sock: socket.socket, opcode: int, obj: dict) -> None:
    send_frame(sock, opcode, json.dumps(obj).encode("utf-8"))


def decode_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShuffleTransportError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ShuffleTransportError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def encode_data(header: dict, stored: bytes) -> bytes:
    """Assemble a ``DATA`` payload: header-length prefix + JSON + bytes."""
    head = json.dumps(header).encode("utf-8")
    return len(head).to_bytes(4, "big") + head + stored


def decode_data(payload: bytes) -> tuple[dict, bytes]:
    if len(payload) < 4:
        raise ShuffleTransportError("DATA payload shorter than its length prefix")
    head_len = int.from_bytes(payload[:4], "big")
    if len(payload) < 4 + head_len:
        raise ShuffleTransportError("DATA payload truncated inside its header")
    return decode_json(payload[4 : 4 + head_len]), payload[4 + head_len :]
