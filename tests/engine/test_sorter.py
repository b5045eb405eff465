"""Tests for spill sorting: ``BinarySpill.sort`` and the two ways a
sorted spill is cut up (per-partition runs, equal-key groups)."""

from repro.engine.binarybuffer import BinarySpill, BinarySpillBuffer


def spill_of(*records: tuple) -> BinarySpill:
    """A drained spill of ``(partition, key[, value])`` records."""
    buffer = BinarySpillBuffer(1 << 20)
    for partition, key, *value in records:
        buffer.append(partition, key, value[0] if value else b"v")
    return buffer.drain()


def in_order(spill: BinarySpill, order: list[int]) -> list[tuple[int, bytes, bytes]]:
    return [spill.entry(seq) for seq in order]


class TestSortSpill:
    def test_orders_by_partition_then_key(self):
        spill = spill_of((1, b"a"), (0, b"z"), (0, b"a"), (1, b"b"))
        order, _ = spill.sort()
        assert [(p, k) for p, k, _ in in_order(spill, order)] == [
            (0, b"a"), (0, b"z"), (1, b"a"), (1, b"b"),
        ]

    def test_stable_for_equal_keys(self):
        # Equal keys, and keys that tie on the 8-byte prefix only.
        spill = spill_of(
            (0, b"k", b"first"), (0, b"prefix-tie-b", b"x"), (0, b"k", b"second"),
            (0, b"prefix-tie-a", b"y"), (0, b"k", b"third"),
        )
        for exact in (False, True):
            order, _ = spill.sort(exact)
            assert [v for _, _, v in in_order(spill, order)] == [
                b"first", b"second", b"third", b"y", b"x",
            ]

    def test_model_comparison_count(self):
        spill = spill_of(*((0, bytes([i % 7])) for i in range(64)))
        _, stats = spill.sort(exact_comparisons=False)
        assert stats.comparisons == 64 * 6  # n log2 n

    def test_exact_comparison_count(self):
        spill = spill_of(*((0, bytes([i % 7])) for i in range(64)))
        order_model, _ = spill.sort(exact_comparisons=False)
        order_exact, stats = spill.sort(exact_comparisons=True)
        assert order_exact == order_model
        assert 63 <= stats.comparisons <= 64 * 8

    def test_trivial_inputs(self):
        order, stats = spill_of().sort()
        assert order == [] and stats.comparisons == 0
        order, stats = spill_of((0, b"k")).sort()
        assert order == [0] and stats.comparisons == 0

    def test_bytes_moved(self):
        _, stats = spill_of((0, b"ab", b"cd"), (0, b"e", b"f")).sort()
        assert stats.bytes_moved == 6


class TestCutPartitions:
    def test_slices_per_partition(self):
        spill = spill_of((0, b"a"), (0, b"b"), (2, b"c"))
        order, _ = spill.sort()
        partitions = spill.partition_runs(order, 3)
        assert [len(p) for p in partitions] == [2, 0, 1]
        assert partitions[2] == [(b"c", b"v")]

    def test_preserves_sort_within_partition(self):
        spill = spill_of((1, b"z"), (1, b"a"), (1, b"m"))
        order, _ = spill.sort()
        partitions = spill.partition_runs(order, 2)
        assert [k for k, _ in partitions[1]] == [b"a", b"m", b"z"]

    def test_key_groups_are_the_equal_key_runs_of_the_partition_runs(self):
        # The same key in two partitions is two groups; values keep
        # arrival order inside a group.
        spill = spill_of(
            (1, b"k", b"1"), (0, b"k", b"2"), (1, b"k", b"3"), (0, b"a", b"4"),
            (1, b"kk", b"5"), (0, b"k", b"6"),
        )
        order, _ = spill.sort()
        groups = spill.key_groups(order)
        assert groups == [
            (0, b"a", [b"4"]), (0, b"k", [b"2", b"6"]),
            (1, b"k", [b"1", b"3"]), (1, b"kk", [b"5"]),
        ]
        flattened = [[] for _ in range(2)]
        for partition, key, values in groups:
            flattened[partition].extend((key, value) for value in values)
        assert flattened == spill.partition_runs(order, 2)
        assert spill_of().key_groups([]) == []
