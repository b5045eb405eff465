"""The user-facing MapReduce programming API.

Users subclass :class:`Mapper`, :class:`Reducer` and optionally
:class:`Combiner`, emitting records through the :class:`Emitter` handed
to them — the same contract as Hadoop's ``Mapper.map(key, value,
context)``.  The framework never requires user code changes for the
paper's optimizations: frequency-buffering and spill-matcher live
entirely behind this interface.

Keys and values are :class:`~repro.serde.Writable` instances; a
:class:`JobSpec` (see :mod:`repro.engine.job`) declares the concrete
types so the engine can deserialize at combine/reduce time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator

from ..serde.writable import Writable

Emitter = Callable[[Writable, Writable], None]
"""``emit(key, value)`` callback handed to user code."""


class Mapper(ABC):
    """User map logic: input record -> zero or more (key, value) pairs."""

    def setup(self) -> None:
        """Called once before the first record of each map task."""

    @abstractmethod
    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        """Process one input record, emitting through *emit*."""

    def cleanup(self, emit: Emitter) -> None:
        """Called once after the last record of each map task."""


class Combiner(ABC):
    """Optional local aggregation, applied map-side to equal-key groups.

    ``combine`` must be *algebraically safe*: applying it to any
    partition of a key's values, in any order, and then reducing, must
    give the same result as reducing the raw values.  The engine may
    apply it zero, one, or many times per key (per spill, during the
    final merge, and eagerly inside the frequency buffer).
    """

    @abstractmethod
    def combine(self, key: Writable, values: list[Writable], emit: Emitter) -> None:
        """Fold *values* for *key*, emitting the aggregate(s)."""


class Reducer(ABC):
    """User reduce logic: one call per unique key with all its values."""

    def setup(self) -> None:
        """Called once before the first group of each reduce task."""

    @abstractmethod
    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        """Aggregate the *values* of *key*, emitting final records."""

    def cleanup(self, emit: Emitter) -> None:
        """Called once after the last group of each reduce task."""


class Partitioner(ABC):
    """Routes a map-output key to a reduce partition."""

    @abstractmethod
    def partition(self, key_bytes: bytes, num_partitions: int) -> int:
        """Partition index in ``[0, num_partitions)`` for serialized *key_bytes*."""


class HashPartitioner(Partitioner):
    """Default partitioner: stable FNV-1a hash of the key bytes.

    Python's built-in ``hash`` is salted per process, so we use FNV-1a
    for run-to-run determinism (job outputs must not depend on
    ``PYTHONHASHSEED``).
    """

    _FNV_OFFSET = 0xCBF29CE484222325
    _FNV_PRIME = 0x100000001B3
    _MASK = (1 << 64) - 1

    def partition(self, key_bytes: bytes, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        if num_partitions == 1:
            return 0
        h, prime, mask = self._FNV_OFFSET, self._FNV_PRIME, self._MASK
        for byte in key_bytes:
            h = ((h ^ byte) * prime) & mask
        return h % num_partitions


class FnMapper(Mapper):
    """Adapter turning a plain function into a :class:`Mapper`.

    The function receives ``(key, value)`` and returns an iterable of
    ``(key', value')`` pairs — convenient for small examples and tests.
    """

    def __init__(
        self,
        fn: Callable[[Writable, Writable], Iterable[tuple[Writable, Writable]]],
    ) -> None:
        self._fn = fn

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        for out_key, out_value in self._fn(key, value):
            emit(out_key, out_value)


class FnReducer(Reducer):
    """Adapter turning a plain function into a :class:`Reducer`."""

    def __init__(
        self,
        fn: Callable[[Writable, list[Writable]], Iterable[tuple[Writable, Writable]]],
    ) -> None:
        self._fn = fn

    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        for out_key, out_value in self._fn(key, list(values)):
            emit(out_key, out_value)


class FnCombiner(Combiner):
    """Adapter turning a plain function into a :class:`Combiner`."""

    def __init__(
        self,
        fn: Callable[[Writable, list[Writable]], Iterable[tuple[Writable, Writable]]],
    ) -> None:
        self._fn = fn

    def combine(self, key: Writable, values: list[Writable], emit: Emitter) -> None:
        for out_key, out_value in self._fn(key, values):
            emit(out_key, out_value)
