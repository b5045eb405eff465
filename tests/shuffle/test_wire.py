"""Unit tests for the shuffle wire format (no sockets needed)."""

from __future__ import annotations

import socket

import pytest

from repro.errors import ShuffleTransportError
from repro.shuffle import wire


def pipe() -> tuple[socket.socket, socket.socket]:
    return socket.socketpair()


class TestFrames:
    def test_round_trip(self):
        a, b = pipe()
        with a, b:
            wire.send_frame(a, wire.OP_GET, b"payload bytes")
            opcode, payload = wire.recv_frame(b)
        assert opcode == wire.OP_GET
        assert payload == b"payload bytes"

    def test_empty_payload(self):
        a, b = pipe()
        with a, b:
            wire.send_frame(a, wire.OP_GET)
            assert wire.recv_frame(b) == (wire.OP_GET, b"")

    def test_bad_magic_rejected(self):
        a, b = pipe()
        with a, b:
            a.sendall(b"XX" + bytes((wire.OP_GET,)) + (0).to_bytes(4, "big"))
            with pytest.raises(ShuffleTransportError, match="magic"):
                wire.recv_frame(b)

    def test_absurd_length_rejected(self):
        a, b = pipe()
        with a, b:
            a.sendall(
                wire.MAGIC + bytes((wire.OP_DATA,))
                + (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            )
            with pytest.raises(ShuffleTransportError, match="absurd"):
                wire.recv_frame(b)

    def test_mid_stream_eof_detected(self):
        a, b = pipe()
        with b:
            with a:
                wire.send_frame(a, wire.OP_DATA, b"x" * 100)
                # Peer dies: read only part of the frame, then EOF.
            data = wire.read_exact(b, 50)
            assert len(data) == 50
            with pytest.raises(ShuffleTransportError, match="closed"):
                wire.read_exact(b, 1000)

    def test_json_round_trip(self):
        a, b = pipe()
        with a, b:
            wire.send_json(a, wire.OP_GET, {"task": "j.m0001", "partition": 3})
            opcode, payload = wire.recv_frame(b)
        assert wire.decode_json(payload) == {"task": "j.m0001", "partition": 3}

    def test_malformed_json_rejected(self):
        with pytest.raises(ShuffleTransportError, match="JSON"):
            wire.decode_json(b"{not json")
        with pytest.raises(ShuffleTransportError, match="object"):
            wire.decode_json(b"[1, 2]")


class TestDataPayload:
    def test_round_trip(self):
        header = {"length": 5, "crc": 99, "codec": None}
        payload = wire.encode_data(header, b"stuff")
        got_header, got_bytes = wire.decode_data(payload)
        assert got_header == header
        assert got_bytes == b"stuff"

    def test_truncated_prefix_rejected(self):
        with pytest.raises(ShuffleTransportError, match="length prefix"):
            wire.decode_data(b"\x00")

    def test_truncated_header_rejected(self):
        payload = wire.encode_data({"length": 1}, b"x")
        with pytest.raises(ShuffleTransportError, match="truncated"):
            wire.decode_data(payload[:6])
