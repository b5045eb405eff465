"""The Writable serialization protocol.

MapReduce moves records across buffer, disk and network boundaries, so
every key/value type must know how to turn itself into bytes and back.
This mirrors Hadoop's ``Writable`` / ``WritableComparable`` interfaces:

* :class:`Writable` — ``to_bytes`` / ``from_bytes`` round-trip plus a
  cheap ``serialized_size`` used for buffer-occupancy accounting.
* a module-level registry mapping type names to classes so that spill
  files and shuffle segments are self-describing.

Concrete writables live in :mod:`repro.serde.text`,
:mod:`repro.serde.numeric` and :mod:`repro.serde.composite`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, ClassVar, Type, TypeVar

from ..errors import SerdeError

W = TypeVar("W", bound="Writable")

_REGISTRY: dict[str, Type["Writable"]] = {}


def register_writable(cls: Type[W]) -> Type[W]:
    """Class decorator adding *cls* to the global writable registry.

    The registry key is the class's ``type_name`` attribute (defaults to
    the class name).  Registration makes the type resolvable by name in
    spill-file headers and job descriptions.
    """

    name = getattr(cls, "type_name", cls.__name__)
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise SerdeError(f"writable type name {name!r} already registered to {existing!r}")
    _REGISTRY[name] = cls
    return cls


def lookup_writable(name: str) -> Type["Writable"]:
    """Resolve a registered writable class by its ``type_name``."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise SerdeError(f"unknown writable type {name!r}") from exc


def registered_writables() -> dict[str, Type["Writable"]]:
    """A snapshot of the registry (name -> class)."""
    return dict(_REGISTRY)


def class_ref(cls: type) -> "type | str":
    """*cls* as a pickle should carry it: a registered class by its
    ``type_name`` (the Pair/Array classes of :mod:`repro.serde.composite`
    are made at run time, so pickle cannot find them by qualified name),
    any other class as itself.  :func:`class_from_ref` inverts it."""
    name = getattr(cls, "type_name", None)
    return name if name is not None and _REGISTRY.get(name) is cls else cls


def class_from_ref(ref: "type | str") -> type:
    """The class a :func:`class_ref` stands for."""
    return lookup_writable(ref) if isinstance(ref, str) else ref


class Writable(ABC):
    """A value that can round-trip through bytes.

    Subclasses must be immutable value objects: equality and hashing are
    defined over the serialized form, which lets the engine use writables
    directly as dictionary keys (the frequency-buffering hash table does
    exactly that).
    """

    type_name: ClassVar[str] = "Writable"
    __slots__ = ()

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Serialize this value to bytes."""

    @classmethod
    @abstractmethod
    def from_bytes(cls: Type[W], data: bytes) -> W:
        """Deserialize an instance from *data* (the exact output of
        :meth:`to_bytes`)."""

    def serialized_size(self) -> int:
        """Number of bytes :meth:`to_bytes` would produce.

        The default implementation serializes; subclasses override with a
        cheaper computation where possible.
        """
        return len(self.to_bytes())

    # Value semantics over the serialized form -------------------------
    def __eq__(self, other: Any) -> bool:
        if other is self:
            return True
        if not isinstance(other, Writable):
            return NotImplemented
        return type(other) is type(self) and other.to_bytes() == self.to_bytes()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.to_bytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_bytes()!r})"


SerdePair = tuple[bytes, bytes]
"""A serialized (key, value) record as it sits in buffers and files."""


def serialize_pair(key: Writable, value: Writable) -> SerdePair:
    """Serialize a key/value record, wrapping failures in SerdeError."""
    try:
        return key.to_bytes(), value.to_bytes()
    except SerdeError:
        raise
    except Exception as exc:  # noqa: BLE001 - boundary wrap
        raise SerdeError(f"failed to serialize record ({key!r}, {value!r})") from exc


def deserialize_pair(
    key_cls: Type[Writable],
    value_cls: Type[Writable],
    pair: SerdePair,
) -> tuple[Writable, Writable]:
    """Inverse of :func:`serialize_pair`."""
    key_bytes, value_bytes = pair
    try:
        return key_cls.from_bytes(key_bytes), value_cls.from_bytes(value_bytes)
    except SerdeError:
        raise
    except Exception as exc:  # noqa: BLE001 - boundary wrap
        raise SerdeError(
            f"failed to deserialize record as ({key_cls.__name__}, {value_cls.__name__})"
        ) from exc


DeserializerFn = Callable[[bytes], Writable]
