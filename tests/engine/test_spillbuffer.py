"""Tests for the spill buffer's capacity and drain contract."""

import pytest

from repro.engine.binarybuffer import RECORD_METADATA_BYTES, BinarySpillBuffer
from repro.errors import SpillBufferError


class TestAppend:
    def test_occupancy_accounting(self):
        buffer = BinarySpillBuffer(1000)
        buffer.append(0, b"key", b"value")
        assert buffer.occupancy_bytes == 8 + RECORD_METADATA_BYTES
        assert buffer.record_count == 1

    def test_occupancy_fraction(self):
        buffer = BinarySpillBuffer(100)
        buffer.append(0, b"12", b"34")  # 4 + 16 = 20
        assert buffer.occupancy_fraction() == pytest.approx(0.2)

    def test_oversized_record_rejected(self):
        buffer = BinarySpillBuffer(32)
        with pytest.raises(SpillBufferError, match=r"partition 3, key b'kkk.*exceeds"):
            buffer.append(3, b"k" * 40, b"")
        assert buffer.is_empty

    def test_would_overflow(self):
        buffer = BinarySpillBuffer(64)
        assert not buffer.would_overflow(10, 10)
        buffer.append(0, b"x" * 20, b"y" * 20)  # 40 + 16 = 56
        assert buffer.would_overflow(1, 1)

    def test_bad_capacity(self):
        with pytest.raises(SpillBufferError):
            BinarySpillBuffer(0)
        with pytest.raises(SpillBufferError, match="uint32"):
            BinarySpillBuffer(1 << 32)  # kvindex offsets could not address it


class TestDrain:
    def test_drain_returns_in_order_and_empties(self):
        buffer = BinarySpillBuffer(1000)
        buffer.append(1, b"a", b"1")
        buffer.append(0, b"b", b"2")
        spill = buffer.drain()
        assert list(spill) == [(1, b"a", b"1"), (0, b"b", b"2")]  # arrival order
        assert spill.payload_bytes == 4
        assert buffer.is_empty
        assert buffer.occupancy_bytes == 0

    def test_refill_after_drain(self):
        buffer = BinarySpillBuffer(100)
        buffer.append(0, b"k", b"v")
        first = buffer.drain()
        buffer.append(0, b"k2", b"v2")
        assert buffer.record_count == 1
        # The drained spill owns its bytes: refilling does not disturb it.
        assert list(first) == [(0, b"k", b"v")]

    def test_iteration_non_destructive(self):
        buffer = BinarySpillBuffer(100)
        buffer.append(0, b"k", b"v")
        spill = buffer.drain()
        assert len(list(spill)) == 1
        assert len(list(spill)) == 1
        assert spill.record_count == 1
