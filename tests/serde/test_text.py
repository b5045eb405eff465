"""Tests for the Text writable."""

import pytest

from repro.errors import SerdeError
from repro.serde.text import Text


class TestTextRoundTrip:
    def test_simple(self):
        assert Text.from_bytes(Text("hello").to_bytes()) == Text("hello")

    def test_empty(self):
        assert Text.from_bytes(Text("").to_bytes()) == Text("")

    def test_unicode(self):
        value = "héllo wörld — ünïcode ✓ 漢字"
        assert Text.from_bytes(Text(value).to_bytes()).value == value

    def test_whitespace_preserved(self):
        value = "  leading and trailing  \t"
        assert Text.from_bytes(Text(value).to_bytes()).value == value

    def test_from_bytes_keeps_the_payload(self):
        # Decoding validated it; serializing again must not re-encode.
        payload = "héllo 漢字".encode("utf-8")
        text = Text.from_bytes(payload)
        assert text.to_bytes() is payload
        assert text.serialized_size() == len(payload)
        assert text == Text("héllo 漢字")

    def test_from_bytes_of_a_bytearray_serializes_as_bytes(self):
        text = Text.from_bytes(bytearray(b"abc"))
        assert type(text.to_bytes()) is bytes and text.to_bytes() == b"abc"


class TestTextSemantics:
    def test_serialized_size_matches(self):
        for s in ("", "a", "héllo", "漢字"):
            assert Text(s).serialized_size() == len(Text(s).to_bytes())

    def test_byte_order_equals_string_order(self):
        # The property the raw comparator relies on.
        words = ["", "a", "ab", "abc", "b", "z", "Ω", "é", "zz"]
        by_bytes = sorted(words, key=lambda w: Text(w).to_bytes())
        by_str = sorted(words)
        assert by_bytes == by_str

    def test_equality_and_hash(self):
        assert Text("x") == Text("x")
        assert Text("x") != Text("y")
        assert hash(Text("x")) == hash(Text("x"))
        assert len({Text("x"), Text("x"), Text("y")}) == 2

    def test_lt(self):
        assert Text("a") < Text("b")
        assert not Text("b") < Text("a")

    def test_usable_as_dict_key(self):
        d = {Text("k"): 1}
        assert d[Text("k")] == 1


class TestTextErrors:
    def test_rejects_non_string(self):
        with pytest.raises(SerdeError):
            Text(42)  # type: ignore[arg-type]

    def test_rejects_invalid_utf8(self):
        with pytest.raises(SerdeError):
            Text.from_bytes(b"\xff\xfe\x00bad")

    @pytest.mark.parametrize(
        "payload",
        [
            b"\xc0\xaf",  # overlong '/': would not round-trip
            b"\xed\xa0\x80",  # a lone surrogate
            b"caf\xc3",  # truncated sequence
        ],
    )
    def test_rejects_utf8_that_would_not_round_trip(self, payload):
        with pytest.raises(SerdeError):
            Text.from_bytes(payload)
