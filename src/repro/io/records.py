"""Framed record streams.

The on-disk and on-wire representation of a sequence of serialized
(key, value) records::

    record := vint(len(key)) key vint(len(value)) value

The same framing is used by spill files, final map outputs, and shuffle
segments, so one reader/writer pair serves the whole pipeline.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import SerdeError
from ..serde.numeric import SMALL_VINTS, decode_vint, encode_vint, vint_size
from ..serde.writable import SerdePair


def record_frame_size(key_len: int, value_len: int) -> int:
    """Bytes one framed record occupies on disk/wire."""
    return vint_size(key_len) + key_len + vint_size(value_len) + value_len


def encode_record(key: bytes, value: bytes) -> bytes:
    """Frame a single serialized record."""
    return encode_vint(len(key)) + key + encode_vint(len(value)) + value


def append_record(out: bytearray, key: bytes, value: bytes) -> None:
    """Frame one serialized record onto the end of *out*."""
    length = len(key)
    out += SMALL_VINTS[length] if length < 64 else encode_vint(length)
    out += key
    length = len(value)
    out += SMALL_VINTS[length] if length < 64 else encode_vint(length)
    out += value


def encode_records(records: Iterable[SerdePair]) -> bytes:
    """Frame a record sequence into one byte string."""
    out = bytearray()
    small = SMALL_VINTS
    for key, value in records:
        length = len(key)
        out += small[length] if length < 64 else encode_vint(length)
        out += key
        length = len(value)
        out += small[length] if length < 64 else encode_vint(length)
        out += value
    return bytes(out)


def decode_records(data: bytes, offset: int = 0, end: int | None = None) -> list[SerdePair]:
    """The framed records in ``data[offset:end]``, decoded in one pass.

    Raises :class:`~repro.errors.SerdeError` on truncation or negative
    lengths; a well-formed stream always ends exactly at *end*.  A
    one-byte length prefix (lengths below 64: no continuation bit, even
    zig-zag) is read inline; anything else goes through
    :func:`~repro.serde.numeric.decode_vint`.
    """
    pos = offset
    stop = len(data) if end is None else end
    if stop > len(data):
        raise SerdeError(f"truncated record stream: range ends at {stop} of {len(data)} bytes")
    records: list[SerdePair] = []
    append = records.append
    while pos < stop:
        key_len = data[pos]
        if key_len & 0x81:
            key_len, pos = decode_vint(data, pos)
        else:
            key_len >>= 1
            pos += 1
        key_end = pos + key_len
        if key_len < 0 or key_end >= stop:  # the value's prefix needs a byte too
            raise SerdeError(f"corrupt record frame at offset {pos}: key length {key_len}")
        value_len = data[key_end]
        if value_len & 0x81:
            value_len, value_pos = decode_vint(data, key_end)
        else:
            value_len >>= 1
            value_pos = key_end + 1
        value_end = value_pos + value_len
        if value_len < 0 or value_end > stop:
            raise SerdeError(
                f"corrupt record frame at offset {value_pos}: value length {value_len}"
            )
        append((data[pos:key_end], data[value_pos:value_end]))
        pos = value_end
    return records


def count_records(data: bytes, offset: int = 0, end: int | None = None) -> int:
    """Number of framed records in a byte range (validates framing)."""
    return len(decode_records(data, offset, end))
