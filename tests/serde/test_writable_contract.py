"""The Writable contract, for every registered class.

Two facts every writable must keep, and the reduce loop's identity
pass-through relies on both: ``serialized_size()`` is the length of
``to_bytes()`` (so ``REDUCE_OUTPUT_BYTES`` can be counted from the
merged bytes), and ``from_bytes(b).to_bytes() == b`` (so a pair decoded
from the merged run serializes to the bytes it came from).  Pair and
array types are built per element class at run time; they are checked
over samples of their element classes.  A newly registered class with
no samples here fails the sweep until it gets some.
"""

from __future__ import annotations

import math

import pytest

import repro.apps.registry  # noqa: F401 - registers the apps' composite types
from repro.serde.composite import (
    ArrayWritable,
    NullWritable,
    PairWritable,
    TaggedWritable,
    array_writable_type,
    pair_writable_type,
)
from repro.serde.extra_types import BooleanWritable, BytesWritable, MapWritable
from repro.serde.numeric import FloatWritable, IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text
from repro.serde.writable import registered_writables

# Composite types over these are registered by the sweep itself, so it
# covers them whichever tests ran first.
pair_writable_type(Text, IntWritable)
pair_writable_type(pair_writable_type(Text, VIntWritable), Text)
array_writable_type(Text)

SAMPLES = {
    Text: ["", "a", "épée", "漢字", "x" * 300],
    IntWritable: [0, 1, -1, 2**31 - 1, -(2**31)],
    LongWritable: [0, -1, 2**63 - 1, -(2**63)],
    FloatWritable: [0.0, -0.0, 1.5, -2.25e300, math.inf, math.nan],
    VIntWritable: [0, 63, 64, -1, -65, 300, 2**63 - 1, -(2**63)],
    BytesWritable: [b"", b"\x00\xff", bytes(range(256))],
    BooleanWritable: [True, False],
    MapWritable: [{}, {"b": "2", "a": "1"}, {"é": "漢字"}],
}


def samples(cls) -> list:
    """Sample instances of *cls*, or [] for a class the sweep does not know."""
    if cls in SAMPLES:
        return [cls(value) for value in SAMPLES[cls]]
    if cls is NullWritable:
        return [NullWritable()]
    if cls is TaggedWritable:
        return [TaggedWritable(0, Text("v")), TaggedWritable(255, VIntWritable(-300))]
    if issubclass(cls, PairWritable):
        return [
            cls(first, second)
            for first, second in zip(samples(cls.first_cls), reversed(samples(cls.second_cls)))
        ]
    if issubclass(cls, ArrayWritable):
        items = samples(cls.element_cls)
        return [cls([]), cls(items[:1]), cls(items)]
    return []


@pytest.mark.parametrize("name", sorted(registered_writables()))
def test_size_and_round_trip(name):
    cls = registered_writables()[name]
    instances = samples(cls)
    assert instances, f"no samples for the registered writable {name}"
    for writable in instances:
        payload = writable.to_bytes()
        assert writable.serialized_size() == len(payload)
        assert cls.from_bytes(payload).to_bytes() == payload
