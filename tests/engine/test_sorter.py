"""Tests for spill sorting: ``BinarySpill.sorted_runs`` (one key-sorted
run per partition) and ``BinarySpill.sort_stats`` (what the SORT charge
counts)."""

from repro.engine.binarybuffer import BinarySpill, BinarySpillBuffer
from repro.io.merger import group_sorted


def spill_of(*records: tuple) -> BinarySpill:
    """A drained spill of ``(partition, key[, value])`` records."""
    buffer = BinarySpillBuffer(1 << 20)
    for partition, key, *value in records:
        buffer.append(partition, key, value[0] if value else b"v")
    return buffer.drain()


def flattened(runs: list[list[tuple[bytes, bytes]]]) -> list[tuple[int, bytes, bytes]]:
    return [(partition, key, value) for partition, run in enumerate(runs) for key, value in run]


class TestSortSpill:
    def test_orders_by_partition_then_key(self):
        spill = spill_of((1, b"a"), (0, b"z"), (0, b"a"), (1, b"b"))
        assert [(p, k) for p, k, _ in flattened(spill.sorted_runs(2))] == [
            (0, b"a"), (0, b"z"), (1, b"a"), (1, b"b"),
        ]

    def test_stable_for_equal_keys(self):
        # Equal keys, and keys that tie on their first 8 bytes only.
        spill = spill_of(
            (0, b"k", b"first"), (0, b"prefix-tie-b", b"x"), (0, b"k", b"second"),
            (0, b"prefix-tie-a", b"y"), (0, b"k", b"third"),
        )
        assert [v for _, _, v in flattened(spill.sorted_runs(1))] == [
            b"first", b"second", b"third", b"y", b"x",
        ]

    def test_model_comparison_count(self):
        spill = spill_of(*((0, bytes([i % 7])) for i in range(64)))
        stats = spill.sort_stats(exact_comparisons=False)
        assert stats.comparisons == 64 * 6  # n log2 n

    def test_exact_comparison_count(self):
        spill = spill_of(*((0, bytes([i % 7])) for i in range(64)))
        runs_model = spill.sorted_runs(1)
        stats = spill.sort_stats(exact_comparisons=True)
        # Counting leaves the order alone: the runs come out the same.
        assert spill.sorted_runs(1) == runs_model
        assert 63 <= stats.comparisons <= 64 * 8

    def test_trivial_inputs(self):
        empty = spill_of()
        assert empty.sorted_runs(2) == [[], []]
        assert empty.sort_stats().comparisons == 0
        one = spill_of((1, b"k"))
        assert one.sorted_runs(2) == [[], [(b"k", b"v")]]
        stats = one.sort_stats(exact_comparisons=True)
        assert stats.comparisons == 0 and stats.bytes_moved == 0

    def test_bytes_moved(self):
        stats = spill_of((0, b"ab", b"cd"), (0, b"e", b"f")).sort_stats()
        assert stats.bytes_moved == 6


class TestCutPartitions:
    def test_slices_per_partition(self):
        partitions = spill_of((0, b"a"), (0, b"b"), (2, b"c")).sorted_runs(3)
        assert [len(p) for p in partitions] == [2, 0, 1]
        assert partitions[2] == [(b"c", b"v")]

    def test_preserves_sort_within_partition(self):
        partitions = spill_of((1, b"z"), (1, b"a"), (1, b"m")).sorted_runs(2)
        assert [k for k, _ in partitions[1]] == [b"a", b"m", b"z"]

    def test_key_groups_are_the_equal_key_runs_of_the_partition_runs(self):
        # The same key in two partitions is two groups; values keep
        # arrival order inside a group.
        spill = spill_of(
            (1, b"k", b"1"), (0, b"k", b"2"), (1, b"k", b"3"), (0, b"a", b"4"),
            (1, b"kk", b"5"), (0, b"k", b"6"),
        )
        groups = [
            (partition, key, values)
            for partition, run in enumerate(spill.sorted_runs(2))
            for key, values in group_sorted(run)
        ]
        assert groups == [
            (0, b"a", [b"4"]), (0, b"k", [b"2", b"6"]),
            (1, b"k", [b"1", b"3"]), (1, b"kk", [b"5"]),
        ]
        assert [list(group_sorted(run)) for run in spill_of().sorted_runs(1)] == [[]]
