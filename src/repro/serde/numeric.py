"""Numeric writables: fixed-width ints/floats and a variable-length int.

The fixed-width encodings are big-endian so byte-wise comparison of two
serialized non-negative integers matches numeric order (used by raw
comparators); :class:`VIntWritable` trades that property for space, the
same trade Hadoop's ``VIntWritable`` makes.
"""

from __future__ import annotations

import struct
from typing import Callable, ClassVar

from ..errors import SerdeError
from .writable import Writable, register_writable

_INT = struct.Struct(">i")
_LONG = struct.Struct(">q")
_FLOAT = struct.Struct(">d")


@register_writable
class IntWritable(Writable):
    """A 32-bit signed integer, big-endian fixed width."""

    type_name: ClassVar[str] = "IntWritable"
    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerdeError(f"IntWritable wraps int, got {type(value).__name__}")
        if not -(2**31) <= value < 2**31:
            raise SerdeError(f"IntWritable out of 32-bit range: {value}")
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return _INT.pack(self._value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IntWritable":
        if len(data) != 4:
            raise SerdeError(f"IntWritable needs 4 bytes, got {len(data)}")
        return cls(_INT.unpack(data)[0])

    def serialized_size(self) -> int:
        return 4

    def __lt__(self, other: "IntWritable") -> bool:
        return self._value < other._value

    def __repr__(self) -> str:
        return f"IntWritable({self._value})"


@register_writable
class LongWritable(Writable):
    """A 64-bit signed integer, big-endian fixed width."""

    type_name: ClassVar[str] = "LongWritable"
    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerdeError(f"LongWritable wraps int, got {type(value).__name__}")
        if not -(2**63) <= value < 2**63:
            raise SerdeError(f"LongWritable out of 64-bit range: {value}")
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return _LONG.pack(self._value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LongWritable":
        if len(data) != 8:
            raise SerdeError(f"LongWritable needs 8 bytes, got {len(data)}")
        return cls(_LONG.unpack(data)[0])

    def serialized_size(self) -> int:
        return 8

    def __lt__(self, other: "LongWritable") -> bool:
        return self._value < other._value

    def __repr__(self) -> str:
        return f"LongWritable({self._value})"


@register_writable
class FloatWritable(Writable):
    """A 64-bit IEEE-754 double, big-endian."""

    type_name: ClassVar[str] = "FloatWritable"
    __slots__ = ("_value",)

    def __init__(self, value: float = 0.0) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SerdeError(f"FloatWritable wraps float, got {type(value).__name__}")
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def to_bytes(self) -> bytes:
        return _FLOAT.pack(self._value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FloatWritable":
        if len(data) != 8:
            raise SerdeError(f"FloatWritable needs 8 bytes, got {len(data)}")
        return cls(_FLOAT.unpack(data)[0])

    def serialized_size(self) -> int:
        return 8

    def __lt__(self, other: "FloatWritable") -> bool:
        return self._value < other._value

    def __repr__(self) -> str:
        return f"FloatWritable({self._value})"


#: ``encode_vint(v)`` for ``0 <= v < 64``: one byte, the zig-zag ``v << 1``.
SMALL_VINTS = tuple(bytes((value << 1,)) for value in range(64))


def encode_vint(value: int) -> bytes:
    """Zig-zag + LEB128 variable-length integer encoding.

    Small magnitudes encode in one byte — important because text-centric
    values are overwhelmingly small counters (WordCount emits ``1``\\ s)
    and every record frame carries two length prefixes; those come from
    a table.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise SerdeError(f"vint encodes int, got {type(value).__name__}")
    if 0 <= value < 64:
        return SMALL_VINTS[value]
    zigzag = (value << 1) ^ (value >> 63) if value < 0 else value << 1
    zigzag &= (1 << 64) - 1
    out = bytearray()
    while True:
        byte = zigzag & 0x7F
        zigzag >>= 7
        if zigzag:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_vint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a vint from *data* at *offset*; returns (value, new_offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise SerdeError("truncated vint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift > 63:
            raise SerdeError("vint too long")
    # undo zig-zag
    value = (result >> 1) ^ -(result & 1)
    return value, pos


def vint_size(value: int) -> int:
    """Serialized size of ``encode_vint(value)`` without materializing it."""
    zigzag = (value << 1) ^ (value >> 63) if value < 0 else value << 1
    zigzag &= (1 << 64) - 1
    size = 1
    while zigzag >= 0x80:
        zigzag >>= 7
        size += 1
    return size


@register_writable
class VIntWritable(Writable):
    """A variable-length signed integer (zig-zag LEB128)."""

    type_name: ClassVar[str] = "VIntWritable"
    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerdeError(f"VIntWritable wraps int, got {type(value).__name__}")
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        # ``__init__`` already checked the type: small counters (every
        # WordCount value) come straight from the table.
        value = self._value
        if 0 <= value < 64:
            return SMALL_VINTS[value]
        return encode_vint(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VIntWritable":
        value, end = decode_vint(data)
        if end != len(data):
            raise SerdeError("trailing bytes after vint")
        return cls(value)

    def serialized_size(self) -> int:
        if 0 <= self._value < 64:
            return 1
        return vint_size(self._value)

    def __lt__(self, other: "VIntWritable") -> bool:
        return self._value < other._value

    def __repr__(self) -> str:
        return f"VIntWritable({self._value})"


class _VIntTable(dict):
    """One-byte vint encodings -> values; a miss runs ``from_bytes``."""

    def __missing__(self, data: bytes) -> int:
        return VIntWritable.from_bytes(data).value


_ONE_BYTE_VINTS = _VIntTable({bytes((b,)): (b >> 1) ^ -(b & 1) for b in range(0x80)})
#: The value of every one-byte vint -> 1, its size.
_ONE_BYTE_VINT_SIZES = dict.fromkeys(_ONE_BYTE_VINTS.values(), 1)
#: The most bytes one vint takes: 64 zig-zag bits, 7 a byte.
VINT_MAX_SIZE = 10


def vint_sizes(values: list[int]) -> int:
    """``sum(map(vint_size, values))``: a list of one-byte values (text
    counters) is summed by table lookups."""
    try:
        return sum(map(_ONE_BYTE_VINT_SIZES.__getitem__, values))
    except KeyError:
        return sum(map(vint_size, values))


def int_reader(value_cls: type) -> Callable[[bytes], int]:
    """``lambda data: value_cls.from_bytes(data).value`` for ``bytes``;
    a one-byte :class:`VIntWritable` (a text counter) from a table."""
    if value_cls is VIntWritable:
        return _ONE_BYTE_VINTS.__getitem__
    decode = value_cls.from_bytes
    return lambda data: decode(data).value


def int_values(value_cls: type, values: list[bytes]) -> list[int]:
    """``[value_cls.from_bytes(v).value for v in values]``: only a value
    off :func:`int_reader`'s table runs ``from_bytes`` (and raises its
    error, for the first bad value)."""
    try:
        return list(map(int_reader(value_cls), values))
    except TypeError:  # an unhashable (bytearray) vint encoding
        return [value_cls.from_bytes(value).value for value in values]
