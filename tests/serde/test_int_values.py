"""Differential test for the int decode behind every proven fold.

``int_values(cls, vs)`` must be indistinguishable from decoding each
value through ``cls.from_bytes(v).value``: the same ints for valid
encodings, and for malformed bytes the same exception type with the
same message (the first bad value in list order decides) — while only
the values outside the one-byte vint table run ``from_bytes``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerdeError
from repro.serde.numeric import IntWritable, LongWritable, VIntWritable, int_values

BITS = {VIntWritable: 64, IntWritable: 32, LongWritable: 64}


def valid(cls) -> st.SearchStrategy[bytes]:
    """Encodings of small, large and negative values."""
    low, high = -(2 ** (BITS[cls] - 1)), 2 ** (BITS[cls] - 1) - 1
    return st.one_of(
        st.integers(min_value=-64, max_value=64),
        st.integers(min_value=low, max_value=high),
        st.sampled_from([low, high, 63, 64, -1, -65]),
    ).map(lambda value: cls(value).to_bytes())


def malformed(cls) -> st.SearchStrategy[bytes]:
    """Wrong length, a trailing byte, a truncated or an overlong vint."""
    return st.one_of(
        st.binary(max_size=11),
        valid(cls).map(lambda encoding: encoding + b"\x00"),  # trailing byte
        valid(cls).map(lambda encoding: encoding[:-1]),  # truncated / short
        st.just(b"\x80" * 10 + b"\x01"),  # overlong vint
        st.just(b"\x81"),  # continuation bit, then nothing
    )


def reference(cls, values: list[bytes]):
    try:
        return [cls.from_bytes(value).value for value in values]
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)


def outcome(cls, values: list[bytes]):
    try:
        return int_values(cls, values)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), cls=st.sampled_from(sorted(BITS, key=lambda cls: cls.__name__)))
def test_int_values_matches_from_bytes(data, cls):
    values = data.draw(
        st.lists(st.one_of(valid(cls), valid(cls), malformed(cls)), max_size=12)
    )
    assert outcome(cls, values) == reference(cls, values)


@settings(max_examples=100, deadline=None)
@given(numbers=st.lists(st.integers(min_value=-64, max_value=63), max_size=20))
def test_one_byte_vints_decode_from_the_table(numbers):
    values = [VIntWritable(number).to_bytes() for number in numbers]
    assert all(len(value) == 1 for value in values)
    assert int_values(VIntWritable, values) == numbers


def one_byte_or_longer() -> st.SearchStrategy[bytes]:
    """VIntWritable encodings, one byte (−64..63) or two to ten bytes."""
    return st.one_of(
        st.integers(min_value=-64, max_value=63),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ).map(lambda value: VIntWritable(value).to_bytes())


@settings(max_examples=150, deadline=None)
@given(values=st.lists(one_byte_or_longer(), max_size=20))
def test_only_values_outside_the_table_run_from_bytes(values):
    """A multi-byte vint falls back alone: the list around it stays on
    the table, so ``from_bytes`` runs once per longer encoding."""
    decoded: list[bytes] = []
    from_bytes = VIntWritable.from_bytes.__func__

    def counting(cls, data):
        decoded.append(data)
        return from_bytes(cls, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VIntWritable, "from_bytes", classmethod(counting))
        assert int_values(VIntWritable, values) == [
            from_bytes(VIntWritable, value).value for value in values
        ]
    assert decoded == [value for value in values if len(value) > 1]


def test_the_first_malformed_value_decides_the_error():
    values = [b"\x02", VIntWritable(300).to_bytes(), b"\x81", b"\x02\x00", b"\x04"]
    with pytest.raises(SerdeError) as first:
        VIntWritable.from_bytes(b"\x81")
    with pytest.raises(SerdeError, match=str(first.value)):
        int_values(VIntWritable, values)


@pytest.mark.parametrize("cls", sorted(BITS, key=lambda cls: cls.__name__))
def test_a_bytearray_value_still_decodes(cls):
    values = [cls(5).to_bytes(), bytearray(cls(-300).to_bytes()), cls(7).to_bytes()]
    assert int_values(cls, values) == [5, -300, 7]
