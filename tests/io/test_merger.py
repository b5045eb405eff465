"""Tests for the k-way merger and group iteration.

The merger is one stable sort over the concatenated runs; the heap-based
k-way merge it replaced lives on here as the reference implementation
(:func:`heap_merge_runs`) that the differential test holds it to, record
for record and stat for stat.
"""

import heapq
from dataclasses import asdict
from math import log2

from hypothesis import given
from hypothesis import strategies as st

from repro.io.merger import MergeStats, group_sorted, merge_and_combine, merge_runs


def heap_merge_runs(runs, stats):
    """Reference: the heap merge ``merge_runs`` was until the sort-merge
    (heap entries order by ``(key, stream id)``; ``2·log2(k)`` comparisons
    charged per record popped, none for a single pass-through run)."""
    live = [iter(run) for run in runs]
    stats.streams = len(live)

    if len(live) == 1:
        for key, value in live[0]:
            stats.records_in += 1
            stats.records_out += 1
            size = len(key) + len(value)
            stats.bytes_in += size
            stats.bytes_out += size
            yield key, value
        return

    heap = []
    for stream_id, stream in enumerate(live):
        try:
            key, value = next(stream)
        except StopIteration:
            continue
        heap.append((key, stream_id, value, stream))
    heapq.heapify(heap)
    cost_per_pop = max(1.0, 2.0 * log2(max(2, len(heap))))

    while heap:
        key, stream_id, value, stream = heapq.heappop(heap)
        stats.records_in += 1
        stats.records_out += 1
        size = len(key) + len(value)
        stats.bytes_in += size
        stats.bytes_out += size
        stats.comparisons += int(cost_per_pop)
        yield key, value
        try:
            next_key, next_value = next(stream)
        except StopIteration:
            continue
        heapq.heappush(heap, (next_key, stream_id, next_value, stream))


def keys_of(records):
    return [k for k, _ in records]


class TestMergeRuns:
    def test_two_runs(self):
        a = [(b"a", b"1"), (b"c", b"3")]
        b = [(b"b", b"2"), (b"d", b"4")]
        merged = list(merge_runs([a, b]))
        assert keys_of(merged) == [b"a", b"b", b"c", b"d"]

    def test_duplicate_keys_across_runs(self):
        a = [(b"k", b"a1"), (b"k", b"a2")]
        b = [(b"k", b"b1")]
        # Key ties break by stream, then by position in the stream: the
        # order every output digest depends on.
        assert merge_runs([a, b]) == [(b"k", b"a1"), (b"k", b"a2"), (b"k", b"b1")]
        assert merge_runs([b, a]) == [(b"k", b"b1"), (b"k", b"a1"), (b"k", b"a2")]

    def test_single_run_passthrough_no_comparisons(self):
        stats = MergeStats()
        run = [(b"a", b"1"), (b"b", b"2")]
        assert list(merge_runs([run], stats)) == run
        assert stats.comparisons == 0
        assert stats.records_in == 2

    def test_empty_runs_ignored(self):
        merged = list(merge_runs([[], [(b"a", b"1")], []]))
        assert merged == [(b"a", b"1")]

    def test_stats_bytes(self):
        stats = MergeStats()
        list(merge_runs([[(b"ab", b"cd")], [(b"e", b"f")]], stats))
        assert stats.bytes_in == 6
        assert stats.bytes_out == 6
        assert stats.streams == 2

    def test_streams_counts_empty_runs_comparisons_do_not(self):
        stats = MergeStats()
        merge_runs([[], [(b"a", b"1")], [], [(b"b", b"2")], [(b"c", b"3")]], stats)
        assert stats.streams == 5
        assert stats.comparisons == 3 * int(2 * log2(3))

    def test_returns_a_new_list(self):
        run = [(b"a", b"1")]
        merged = merge_runs([run])
        assert merged == run and merged is not run


class TestMergeAndCombine:
    @staticmethod
    def summing_combine(key, values):
        total = sum(int(v) for v in values)
        return [(key, str(total).encode())]

    def test_combines_equal_keys(self):
        a = [(b"k", b"1"), (b"z", b"5")]
        b = [(b"k", b"2")]
        out = list(merge_and_combine([a, b], self.summing_combine))
        assert out == [(b"k", b"3"), (b"z", b"5")]

    def test_none_combiner_passthrough(self):
        a = [(b"k", b"1")]
        b = [(b"k", b"2")]
        stats = MergeStats()
        assert merge_and_combine([a, b], None, stats) == [(b"k", b"1"), (b"k", b"2")]
        assert asdict(stats) == asdict(reference_stats([a, b]))

    def test_output_stays_sorted(self):
        runs = [
            [(b"a", b"1"), (b"m", b"1"), (b"z", b"1")],
            [(b"a", b"1"), (b"n", b"1")],
        ]
        out = list(merge_and_combine(runs, self.summing_combine))
        assert keys_of(out) == sorted(keys_of(out))

    def test_stats_records_out_after_combine(self):
        stats = MergeStats()
        runs = [[(b"k", b"1")], [(b"k", b"2")], [(b"k", b"3")]]
        out = list(merge_and_combine(runs, self.summing_combine, stats))
        assert stats.records_in == 3
        assert stats.records_out == 1
        assert out == [(b"k", b"6")]


def reference_stats(runs):
    stats = MergeStats()
    list(heap_merge_runs(runs, stats))
    return stats


class TestGroupSorted:
    def test_groups(self):
        records = [(b"a", b"1"), (b"a", b"2"), (b"b", b"3")]
        groups = list(group_sorted(records))
        assert groups == [(b"a", [b"1", b"2"]), (b"b", [b"3"])]

    def test_empty(self):
        assert list(group_sorted([])) == []

    def test_single_key(self):
        groups = list(group_sorted([(b"k", b"v")] * 4))
        assert groups == [(b"k", [b"v"] * 4)]


@given(
    st.lists(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=4), st.binary(max_size=4)),
            max_size=15,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_merge_property(runs):
    """Merging sorted runs yields the sorted multiset union."""
    sorted_runs = [sorted(run, key=lambda r: r[0]) for run in runs]
    merged = list(merge_runs([list(r) for r in sorted_runs]))
    everything = sorted(
        (record for run in sorted_runs for record in run), key=lambda r: r[0]
    )
    assert keys_of(merged) == keys_of(everything)
    assert sorted(merged) == sorted(everything)


# Few distinct keys and values that name their origin: ties within and
# across runs are the common case, and a wrong tie order changes the
# output, not just its multiset.
_KEYS = st.sampled_from([b"", b"a", b"aa", b"ab", b"b", b"\x00", b"\xff", b"k" * 70])


@st.composite
def sorted_runs(draw):
    lengths = draw(
        st.one_of(
            st.lists(st.integers(0, 12), min_size=2, max_size=12),
            st.lists(st.integers(0, 12), min_size=1, max_size=1),  # a single run
        )
    )
    runs = []
    for stream, length in enumerate(lengths):
        keys = sorted(draw(st.lists(_KEYS, min_size=length, max_size=length)))
        runs.append([(key, b"%d.%d" % (stream, pos)) for pos, key in enumerate(keys)])
    return runs


@given(sorted_runs(), st.booleans())
def test_sort_merge_is_the_heap_merge(runs, as_iterators):
    """Differential against the deleted heap merge: the same records in
    the same order, and every ``MergeStats`` field equal."""
    expected_stats = MergeStats()
    expected = list(heap_merge_runs(runs, expected_stats))
    stats = MergeStats()
    given_runs = [iter(run) for run in runs] if as_iterators else [tuple(run) for run in runs]
    assert merge_runs(given_runs, stats) == expected
    assert asdict(stats) == asdict(expected_stats)
