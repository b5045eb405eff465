"""Composite writables: pairs, arrays, tagged unions, and the null value.

These give applications structured values without inventing per-app byte
formats: InvertedIndex posting lists are ``ArrayWritable`` of positions,
PageRank records are pairs of (rank, outlinks), and the repartition join
in AccessLogJoin tags values with their source table via
:class:`TaggedWritable`.
"""

from __future__ import annotations

from typing import ClassVar, Iterable, Sequence, Type

from ..errors import SerdeError
from .numeric import decode_vint, encode_vint, vint_size
from .writable import Writable, lookup_writable, register_writable


@register_writable
class NullWritable(Writable):
    """A zero-byte placeholder for jobs that need no value (or key)."""

    type_name: ClassVar[str] = "NullWritable"
    __slots__ = ()

    _INSTANCE: ClassVar["NullWritable | None"] = None

    def __new__(cls) -> "NullWritable":
        if cls._INSTANCE is None:
            cls._INSTANCE = super().__new__(cls)
        return cls._INSTANCE

    def to_bytes(self) -> bytes:
        return b""

    @classmethod
    def from_bytes(cls, data: bytes) -> "NullWritable":
        if data:
            raise SerdeError("NullWritable payload must be empty")
        return cls()

    def serialized_size(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullWritable()"


def _frame(chunks: Iterable[bytes]) -> bytes:
    """Length-prefix each chunk with a vint and concatenate."""
    out = bytearray()
    for chunk in chunks:
        out += encode_vint(len(chunk))
        out += chunk
    return bytes(out)


def _unframe(data: bytes) -> list[bytes]:
    """Inverse of :func:`_frame`."""
    chunks: list[bytes] = []
    pos = 0
    while pos < len(data):
        length, pos = decode_vint(data, pos)
        if length < 0 or pos + length > len(data):
            raise SerdeError("corrupt frame: declared length exceeds payload")
        chunks.append(data[pos : pos + length])
        pos += length
    return chunks


class PairWritable(Writable):
    """An ordered pair of writables.

    Concrete pair types are created with :func:`pair_writable_type` so the
    element classes are known statically (needed for deserialization).
    """

    type_name: ClassVar[str] = "PairWritable"
    first_cls: ClassVar[Type[Writable]]
    second_cls: ClassVar[Type[Writable]]
    __slots__ = ("_first", "_second")

    def __init__(self, first: Writable, second: Writable) -> None:
        if not isinstance(first, self.first_cls):
            raise SerdeError(
                f"{type(self).__name__} first element must be "
                f"{self.first_cls.__name__}, got {type(first).__name__}"
            )
        if not isinstance(second, self.second_cls):
            raise SerdeError(
                f"{type(self).__name__} second element must be "
                f"{self.second_cls.__name__}, got {type(second).__name__}"
            )
        self._first = first
        self._second = second

    @property
    def first(self) -> Writable:
        return self._first

    @property
    def second(self) -> Writable:
        return self._second

    def to_bytes(self) -> bytes:
        return _frame((self._first.to_bytes(), self._second.to_bytes()))

    @classmethod
    def from_bytes(cls, data: bytes) -> "PairWritable":
        chunks = _unframe(data)
        if len(chunks) != 2:
            raise SerdeError(f"{cls.__name__} expects 2 framed chunks, got {len(chunks)}")
        return cls(cls.first_cls.from_bytes(chunks[0]), cls.second_cls.from_bytes(chunks[1]))

    def serialized_size(self) -> int:
        a = self._first.serialized_size()
        b = self._second.serialized_size()
        return vint_size(a) + a + vint_size(b) + b

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._first!r}, {self._second!r})"

    def __reduce__(self):
        return (_rebuild_writable, (self.type_name, self.to_bytes()))


def _rebuild_writable(type_name: str, payload: bytes) -> Writable:
    """Pickle reconstructor for dynamically created writable types.

    Concrete pair/array classes are built with :func:`type` at runtime,
    so the default class-by-reference pickling cannot import them; an
    instance instead pickles as (registered type name, serialized bytes)
    and rebuilds through the writable registry — which the cluster
    backend's parent has populated by constructing the job.
    """
    from .writable import lookup_writable

    return lookup_writable(type_name).from_bytes(payload)


_PAIR_CACHE: dict[tuple[str, str], Type[PairWritable]] = {}


def pair_writable_type(
    first_cls: Type[Writable], second_cls: Type[Writable]
) -> Type[PairWritable]:
    """Create (or fetch) a concrete pair type for the given element types."""
    cache_key = (first_cls.type_name, second_cls.type_name)
    cached = _PAIR_CACHE.get(cache_key)
    if cached is not None:
        return cached
    name = f"Pair_{first_cls.type_name}_{second_cls.type_name}"
    cls = type(
        name,
        (PairWritable,),
        {
            "type_name": name,
            "first_cls": first_cls,
            "second_cls": second_cls,
            "__slots__": (),
        },
    )
    register_writable(cls)
    _PAIR_CACHE[cache_key] = cls
    return cls


class ArrayWritable(Writable):
    """A homogeneous sequence of writables.

    Concrete array types come from :func:`array_writable_type`.
    """

    type_name: ClassVar[str] = "ArrayWritable"
    element_cls: ClassVar[Type[Writable]]
    __slots__ = ("_items",)

    def __init__(self, items: Sequence[Writable] = ()) -> None:
        items = tuple(items)
        for item in items:
            if not isinstance(item, self.element_cls):
                raise SerdeError(
                    f"{type(self).__name__} elements must be "
                    f"{self.element_cls.__name__}, got {type(item).__name__}"
                )
        self._items = items

    @property
    def items(self) -> tuple[Writable, ...]:
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, index: int) -> Writable:
        return self._items[index]

    def to_bytes(self) -> bytes:
        return _frame(item.to_bytes() for item in self._items)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArrayWritable":
        return cls([cls.element_cls.from_bytes(chunk) for chunk in _unframe(data)])

    def serialized_size(self) -> int:
        total = 0
        for item in self._items:
            size = item.serialized_size()
            total += vint_size(size) + size
        return total

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._items)!r})"

    def __reduce__(self):
        return (_rebuild_writable, (self.type_name, self.to_bytes()))


_ARRAY_CACHE: dict[str, Type[ArrayWritable]] = {}


def array_writable_type(element_cls: Type[Writable]) -> Type[ArrayWritable]:
    """Create (or fetch) a concrete array type for *element_cls*."""
    cached = _ARRAY_CACHE.get(element_cls.type_name)
    if cached is not None:
        return cached
    name = f"Array_{element_cls.type_name}"
    cls = type(
        name,
        (ArrayWritable,),
        {"type_name": name, "element_cls": element_cls, "__slots__": ()},
    )
    register_writable(cls)
    _ARRAY_CACHE[element_cls.type_name] = cls
    return cls


@register_writable
class TaggedWritable(Writable):
    """A tagged union: one byte of tag plus a payload of a registered type.

    Repartition joins (AccessLogJoin) use the tag to tell which input
    table a value came from after the shuffle has interleaved them.
    The payload type name travels in the frame so the value is
    self-describing.
    """

    type_name: ClassVar[str] = "TaggedWritable"
    __slots__ = ("_tag", "_payload")

    def __init__(self, tag: int, payload: Writable) -> None:
        if not isinstance(tag, int) or isinstance(tag, bool) or not 0 <= tag <= 255:
            raise SerdeError(f"tag must be an int in [0, 255], got {tag!r}")
        if not isinstance(payload, Writable):
            raise SerdeError(f"payload must be a Writable, got {type(payload).__name__}")
        self._tag = tag
        self._payload = payload

    @property
    def tag(self) -> int:
        return self._tag

    @property
    def payload(self) -> Writable:
        return self._payload

    def to_bytes(self) -> bytes:
        type_name = self._payload.type_name.encode("ascii")
        return bytes([self._tag]) + _frame((type_name, self._payload.to_bytes()))

    @classmethod
    def from_bytes(cls, data: bytes) -> "TaggedWritable":
        if not data:
            raise SerdeError("empty TaggedWritable payload")
        tag = data[0]
        chunks = _unframe(data[1:])
        if len(chunks) != 2:
            raise SerdeError("TaggedWritable expects type name + payload chunks")
        payload_cls = lookup_writable(chunks[0].decode("ascii"))
        return cls(tag, payload_cls.from_bytes(chunks[1]))

    def serialized_size(self) -> int:
        name_len = len(self._payload.type_name)
        payload_len = self._payload.serialized_size()
        return 1 + vint_size(name_len) + name_len + vint_size(payload_len) + payload_len

    def __repr__(self) -> str:
        return f"TaggedWritable(tag={self._tag}, payload={self._payload!r})"
