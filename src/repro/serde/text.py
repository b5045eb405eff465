"""UTF-8 text writable — the workhorse key type of text-centric jobs."""

from __future__ import annotations

from typing import ClassVar

from ..errors import SerdeError
from .writable import Writable, register_writable


@register_writable
class Text(Writable):
    """An immutable UTF-8 string writable.

    Sorting the serialized form byte-wise is equivalent to sorting the
    underlying strings by Unicode code point (a property of UTF-8), so
    map outputs keyed by :class:`Text` can be ordered with the raw
    byte comparator and never deserialized during sort — the same trick
    Hadoop's ``Text`` uses.
    """

    type_name: ClassVar[str] = "Text"
    __slots__ = ("_value", "_encoded")

    def __init__(self, value: str = "") -> None:
        if not isinstance(value, str):
            raise SerdeError(f"Text wraps str, got {type(value).__name__}")
        self._value = value
        self._encoded: bytes | None = None

    @property
    def value(self) -> str:
        return self._value

    def to_bytes(self) -> bytes:
        if self._encoded is None:
            self._encoded = self._value.encode("utf-8")
        return self._encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        try:
            text = cls(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise SerdeError(f"invalid UTF-8 in Text payload: {data[:32]!r}...") from exc
        # Strict UTF-8 round-trips exactly, so the validated payload *is*
        # the encoding: sizing or re-serializing never encodes again.
        text._encoded = data if type(data) is bytes else bytes(data)
        return text

    def serialized_size(self) -> int:
        return len(self.to_bytes())

    def __lt__(self, other: "Text") -> bool:
        return self.to_bytes() < other.to_bytes()

    def __str__(self) -> str:
        return self._value

    def __repr__(self) -> str:
        return f"Text({self._value!r})"
