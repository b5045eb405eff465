"""Tests for framed record streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SerdeError
from repro.io.records import (
    append_record,
    count_records,
    decode_records,
    encode_record,
    encode_records,
    record_frame_size,
)
from repro.serde.numeric import decode_vint, encode_vint


class TestFraming:
    def test_round_trip(self):
        records = [(b"k1", b"v1"), (b"", b"v"), (b"k", b""), (b"", b"")]
        data = encode_records(records)
        assert list(decode_records(data)) == records

    def test_single_record(self):
        data = encode_record(b"key", b"value")
        assert list(decode_records(data)) == [(b"key", b"value")]

    def test_frame_size_matches(self):
        for key, value in [(b"", b""), (b"k", b"v" * 200), (b"x" * 1000, b"")]:
            assert record_frame_size(len(key), len(value)) == len(encode_record(key, value))

    def test_count_records(self):
        data = encode_records([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        assert count_records(data) == 3

    def test_range_decoding(self):
        first = encode_record(b"a", b"1")
        second = encode_record(b"bb", b"22")
        data = first + second
        assert list(decode_records(data, len(first))) == [(b"bb", b"22")]
        assert list(decode_records(data, 0, len(first))) == [(b"a", b"1")]

    def test_empty_stream(self):
        assert list(decode_records(b"")) == []


class TestCorruption:
    def test_truncated_key(self):
        data = encode_record(b"longkey", b"v")[:4]
        with pytest.raises(SerdeError):
            list(decode_records(data))

    def test_truncated_value(self):
        data = encode_record(b"k", b"longvalue")[:-3]
        with pytest.raises(SerdeError):
            list(decode_records(data))

    def test_declared_length_past_end(self):
        # vint length 100 but only 2 payload bytes follow
        with pytest.raises(SerdeError):
            list(decode_records(bytes([100 << 1]) + b"ab"))

    @pytest.mark.parametrize(
        "prefix",
        [
            bytes([0x03]),  # one byte, odd zig-zag: -2 (inline path)
            bytes([0x81, 0x01]),  # two bytes, odd zig-zag: -65 (decode_vint path)
        ],
    )
    def test_negative_length_rejected(self, prefix):
        assert decode_vint(prefix)[0] < 0
        with pytest.raises(SerdeError, match="key length"):
            decode_records(prefix + b"payload-bytes" * 8)
        with pytest.raises(SerdeError, match="value length"):
            decode_records(encode_vint(1) + b"k" + prefix + b"payload-bytes" * 8)

    def test_key_without_value_prefix(self):
        with pytest.raises(SerdeError):
            decode_records(encode_vint(2) + b"ab")
        # ... also when the range, not the data, ends there
        data = encode_record(b"ab", b"cd")
        with pytest.raises(SerdeError):
            decode_records(data, 0, 3)

    def test_range_past_the_data(self):
        data = encode_record(b"a", b"1")
        with pytest.raises(SerdeError):
            decode_records(data, 0, len(data) + 1)


@given(
    st.lists(
        st.tuples(st.binary(max_size=50), st.binary(max_size=200)),
        max_size=30,
    )
)
def test_round_trip_property(records):
    assert list(decode_records(encode_records(records))) == records


# Lengths on both sides of the one-/two-byte (63/64) and two-/three-byte
# (8191/8192) prefix boundaries, and the small ones real jobs carry.
_LENGTHS = st.sampled_from([0, 1, 2, 10, 62, 63, 64, 65, 200, 8190, 8191, 8192, 8193])
_PAYLOAD = _LENGTHS.map(lambda n: bytes(range(256)) * (n // 256) + bytes(range(n % 256)))


@given(
    st.lists(st.tuples(_PAYLOAD, _PAYLOAD), max_size=6),
    st.lists(st.tuples(_PAYLOAD, _PAYLOAD), max_size=3),
    st.lists(st.tuples(_PAYLOAD, _PAYLOAD), max_size=3),
)
def test_round_trip_across_prefix_widths(records, before, after):
    """One-, two- and three-byte prefixes, decoded out of the middle of a
    larger buffer through ``offset``/``end``."""
    head, body, tail = encode_records(before), encode_records(records), encode_records(after)
    assert len(body) == sum(record_frame_size(len(k), len(v)) for k, v in records)
    assert body == b"".join(encode_record(k, v) for k, v in records)
    appended = bytearray()
    for key, value in records:
        append_record(appended, key, value)
    assert appended == body
    data = head + body + tail
    assert decode_records(data, len(head), len(head) + len(body)) == records
    assert decode_records(data) == before + records + after
    assert count_records(data, len(head)) == len(records) + len(after)
