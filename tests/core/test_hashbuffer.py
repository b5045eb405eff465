"""Tests for the bytes-keyed frequent-key table and its two folds."""

import pytest

from repro.core.freqbuf.hashbuffer import (
    FrequentKeyTable,
    MonoidKeyTable,
    Tallies,
    frequent_key_table,
)
from repro.engine.api import Combiner
from repro.errors import UserCodeError
from repro.serde.numeric import IntWritable, VIntWritable
from repro.serde.text import Text
from tests.conftest import SumCombiner as TemplateSumCombiner


class LoopSumCombiner(Combiner):
    """Sums like the template, but not in a shape the matcher proves."""

    def combine(self, key, values, emit):
        total = 0
        for value in values:
            total += value.value
        emit(key, VIntWritable(total))


class RekeyingCombiner(Combiner):
    """Legal but unusual: the aggregate leaves under another key."""

    def combine(self, key, values, emit):
        emit(Text(key.value + "!"), VIntWritable(sum(v.value for v in values)))


def make_table(keys=("hot", "warm"), budget=4096, limit=4, combiner=LoopSumCombiner):
    overflowed = []
    instance = combiner() if combiner else None
    table = frequent_key_table(
        {Text(k) for k in keys},
        budget_bytes=budget,
        overflow_sink=lambda kb, vb: overflowed.append((kb, vb)),
        combiner=instance,
        value_cls=VIntWritable,
        values_per_key_limit=limit,
    )
    return table, overflowed


def add(table, key, number, value_cls=VIntWritable):
    table.add(table.slots[key.encode()], value_cls(number))


def decoded(pairs):
    return [(kb.decode(), VIntWritable.from_bytes(vb).value) for kb, vb in pairs]


def both_folds(test):
    """Run *test* under the generic and the monoid fold, which must
    behave alike.  (A loop, not a parametrization: one test id each.)"""

    def run(self):
        for combiner in (LoopSumCombiner, TemplateSumCombiner):
            test(self, combiner)

    run.__name__ = test.__name__
    return run


def test_fold_follows_the_combiner_source():
    assert type(make_table(combiner=LoopSumCombiner)[0]) is FrequentKeyTable
    assert type(make_table(combiner=TemplateSumCombiner)[0]) is MonoidKeyTable
    assert type(make_table(combiner=None)[0]) is FrequentKeyTable


class TestInsertAndCombine:
    def test_accepts_only_frequent_keys(self):
        table, _ = make_table()
        assert table.slots.get(Text("hot").to_bytes()) is not None
        assert table.slots.get(Text("cold").to_bytes()) is None

    @both_folds
    def test_eager_combine_at_limit(self, combiner):
        table, _ = make_table(limit=4, combiner=combiner)
        for _ in range(4):
            add(table, "hot", 1)
        # 4 values hit the limit -> combined into one
        assert table.take_tallies() == Tallies(
            hits=4, hit_bytes=16, combines=1, combine_in=4, combine_out=1, evictions=0
        )
        assert decoded(table.drain()) == [("hot", 4)]
        # One value left after the eager combine: drain has nothing to fold.
        assert table.take_tallies() == Tallies(0, 0, 0, 0, 0, 0)

    @both_folds
    def test_drain_combines_remainder(self, combiner):
        table, _ = make_table(limit=10, combiner=combiner)
        for _ in range(3):
            add(table, "hot", 2)
        assert decoded(table.drain()) == [("hot", 6)]
        assert table.occupancy_bytes == 0
        # The drain's combine is user work but not hash-table work.
        tallies = table.take_tallies()
        assert (tallies.combines, tallies.combine_in, tallies.combine_out) == (0, 3, 1)

    @both_folds
    def test_drain_deterministic_order(self, combiner):
        table, _ = make_table(keys=("b", "a", "c"), combiner=combiner)
        for k in ("c", "a", "b"):
            add(table, k, 1)
        assert [k for k, _ in decoded(table.drain())] == ["a", "b", "c"]

    def test_without_combiner_values_accumulate(self):
        table, _ = make_table(combiner=None, limit=4)
        for _ in range(6):
            add(table, "hot", 1)
        assert len(table.drain()) == 6  # nothing combined, all values preserved
        assert table.take_tallies().combine_in == 0

    @both_folds
    def test_totals_preserved_mixed_keys(self, combiner):
        table, overflowed = make_table(limit=3, budget=1 << 20, combiner=combiner)
        for _ in range(25):
            add(table, "hot", 1)
            add(table, "warm", 2)
        totals = {"hot": 0, "warm": 0}
        for key, number in decoded(table.drain() + overflowed):
            totals[key] += number
        assert totals == {"hot": 25, "warm": 50}

    @pytest.mark.parametrize("agg, expected", [("min", -7), ("max", 9)])
    def test_min_max_fold_in_place(self, agg, expected):
        table = MonoidKeyTable(
            {Text("hot")}, 4096, lambda kb, vb: None, combiner=TemplateSumCombiner(),
            values_per_key_limit=3, fold=agg, value_cls=VIntWritable,
        )
        for number in (3, -7, 9, 0, 5):
            add(table, "hot", number)
        assert decoded(table.drain()) == [("hot", expected)]

    def test_monoid_fold_fails_where_combine_would(self):
        # Two IntWritables that each fit but whose sum does not: the
        # generic fold's combine() raises building the aggregate.
        table = MonoidKeyTable(
            {Text("hot")}, 4096, lambda kb, vb: None, combiner=TemplateSumCombiner(),
            values_per_key_limit=2, fold="sum", value_cls=IntWritable,
        )
        add(table, "hot", 2**31 - 1, IntWritable)
        with pytest.raises(UserCodeError, match="combine"):
            add(table, "hot", 1, IntWritable)


class TestOverflow:
    def test_overflow_when_budget_exceeded(self):
        # Tiny budget with an inflating combiner-free table must overflow
        # (values are multi-byte so 40 of them exceed 64 bytes).
        table, overflowed = make_table(budget=64, limit=100, combiner=None)
        for i in range(40):
            add(table, "hot", 10**9 + i)
        assert overflowed, "expected overflow to the spill path"
        assert table.occupancy_bytes <= 64
        assert table.take_tallies().evictions == len(overflowed)

    def test_no_records_lost_on_overflow(self):
        table, overflowed = make_table(budget=64, limit=100, combiner=None)
        n = 50
        for i in range(n):
            add(table, "hot", 10**9 + i)
        assert len(overflowed) + len(table.drain()) == n

    @both_folds
    def test_evicts_the_fullest_key_ties_by_key_bytes(self, combiner):
        table, overflowed = make_table(
            keys=("aa", "bb", "cc"), budget=16, limit=100, combiner=combiner
        )
        add(table, "bb", 10**9)  # 2 key bytes + a 5-byte value
        add(table, "aa", 10**9)
        assert (overflowed, table.occupancy_bytes) == ([], 14)
        add(table, "cc", 1)  # 17 > 16; "aa" and "bb" tie for fullest
        assert decoded(overflowed) == [("aa", 10**9)]
        # Only the values leave: the key's bytes stay charged.
        assert table.occupancy_bytes == 12
        tallies = table.take_tallies()
        # A victim is combined before it leaves, even a lone value.
        assert (tallies.combines, tallies.combine_in, tallies.combine_out) == (1, 1, 1)
        assert tallies.evictions == 1

        add(table, "bb", 10**9)  # 17 again; "bb" now holds the most
        assert decoded(overflowed)[1:] == [("bb", 2 * 10**9)]
        assert decoded(table.drain()) == [("cc", 1)]

    @both_folds
    def test_combine_tallies_wait_for_the_evictions(self, combiner):
        # An evicted record can cut a spill, which settles the tallies:
        # the insert's own combines must not be visible to it yet.
        seen_by_sink = []
        table = frequent_key_table(
            {Text("hot")}, budget_bytes=4,
            overflow_sink=lambda kb, vb: seen_by_sink.append(table.take_tallies()),
            combiner=combiner(), value_cls=VIntWritable, values_per_key_limit=2,
        )
        add(table, "hot", 10**6)
        assert [(t.hits, t.combines, t.combine_in) for t in seen_by_sink] == [(1, 0, 0)]
        after = table.take_tallies()
        assert (after.combines, after.combine_in, after.evictions) == (1, 1, 1)

    def test_rekeyed_combiner_output_goes_to_the_spill_path(self):
        table, overflowed = make_table(limit=2, combiner=RekeyingCombiner)
        assert type(table) is FrequentKeyTable  # a rewritten key defeats the proof
        add(table, "hot", 1)
        add(table, "hot", 2)
        # The aggregate cannot stay in "hot"'s slot.
        assert decoded(overflowed) == [("hot!", 3)]
        assert table.occupancy_bytes == len(b"hot")
        tallies = table.take_tallies()
        assert (tallies.combine_in, tallies.combine_out, tallies.evictions) == (2, 1, 1)
        assert table.drain() == []

    def test_validation(self):
        def sink(kb, vb):
            return None

        with pytest.raises(ValueError):
            FrequentKeyTable(set(), 0, sink)
        with pytest.raises(ValueError):
            FrequentKeyTable(set(), 10, sink, values_per_key_limit=1)
