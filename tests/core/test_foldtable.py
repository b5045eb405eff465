"""Tests for the one map-side fold table and its two folds."""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import Keys
from repro.core.freqbuf.collector import SHARED_FREQUENT_KEYS, Tallies
from repro.engine.api import Combiner
from repro.engine.combiner import CombinerRunner
from repro.engine.costmodel import UserCodeCosts
from repro.engine.counters import Counters
from repro.engine.foldtable import FoldTable
from repro.engine.instrumentation import Ledger, TaskInstruments
from repro.engine.runner import build_collector
from repro.errors import UserCodeError
from repro.io.blockdisk import LocalDisk
from repro.serde.numeric import VINT_MAX_SIZE, IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text
from tests.conftest import SumCombiner as TemplateSumCombiner
from tests.conftest import make_wordcount_job
from tests.core.test_freqbuf_frontstage import COMBINERS, HiddenCombiner


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


def runner_for(combiner, value_cls=VIntWritable):
    return CombinerRunner(combiner, Text, value_cls, UserCodeCosts(), Counters())


class Site:
    """Drives a table as the frequency buffer does: tally the hit, insert,
    forward what left, then publish the combines."""

    def __init__(self, keys=("hot", "warm"), budget=4096, limit=4, combiner=LoopSumCombiner,
                 value_cls=VIntWritable):
        runner = runner_for(combiner(), value_cls) if combiner else None
        self.limit = limit
        admitted = [Text(k).to_bytes() for k in keys]
        self.table = FoldTable(runner, limit, keys=admitted, budget_bytes=budget)
        self.value_cls = value_cls
        self.tallies = Tallies()
        self.overflowed = []  # what left the table, in order

    #: Defer hits while the table allows (the frequency buffer's hit path).
    defers = False
    safe_hits = 0

    def add(self, key, number):
        key_bytes, value = Text(key).to_bytes(), self.value_cls(number)
        slot = self.table.slots[key_bytes]
        if self.defers and not self.safe_hits:
            self.catch_up()
            self.safe_hits = self.table.safe_inserts()
        if self.safe_hits:
            self.safe_hits -= 1
            slot.pending.append(number)
            return
        size = value.serialized_size()
        self.tallies.hits += 1
        self.tallies.hit_bytes += len(key_bytes) + size
        item = value.value if self.table.fold is not None else value.to_bytes()
        outcome = self.table.add(slot, item, size)
        if outcome is not None:
            left, combined = outcome
            self.overflowed.extend(left)
            self.tallies.publish(len(left), combined)

    def catch_up(self):
        hits, hit_bytes, combines = self.table.catch_up()
        self.tallies.hits += hits
        self.tallies.hit_bytes += hit_bytes
        self.tallies.publish(0, [(self.limit, 1)] * combines)

    def drain(self):
        self.catch_up()
        aggregates, outcomes = self.table.drain()
        for rekeyed, combined in outcomes:
            self.overflowed.extend(rekeyed)
            self.tallies.publish(len(rekeyed), combined, eager=False)
        return aggregates

    def take_tallies(self):
        self.catch_up()
        taken, self.tallies = self.tallies, Tallies()
        return taken


def decoded(pairs, value_cls=VIntWritable):
    return [(kb.decode(), value_cls.from_bytes(vb).value) for kb, vb in pairs]


def both_folds(test):
    """Run *test* under the generic and the proven fold, which must
    behave alike.  (A loop, not a parametrization: one test id each.)"""

    def run(self):
        for combiner in (LoopSumCombiner, TemplateSumCombiner):
            test(self, combiner)

    run.__name__ = test.__name__
    return run


def test_fold_follows_the_combiner_source():
    assert Site(combiner=LoopSumCombiner).table.fold is None
    assert Site(combiner=TemplateSumCombiner).table.fold == "sum"
    assert Site(combiner=None).table.fold is None


class TestInsertAndCombine:
    def test_accepts_only_frequent_keys(self):
        table = Site().table
        assert table.slots.get(Text("hot").to_bytes()) is not None
        assert table.slots.get(Text("cold").to_bytes()) is None

    @both_folds
    def test_eager_combine_at_limit(self, combiner):
        site = Site(limit=4, combiner=combiner)
        for _ in range(4):
            site.add("hot", 1)
        # 4 values hit the limit -> combined into one
        assert site.take_tallies() == Tallies(
            hits=4, hit_bytes=16, combines=1, combine_in=4, combine_out=1, evictions=0
        )
        assert decoded(site.drain()) == [("hot", 4)]
        # One value left after the eager combine: drain has nothing to fold.
        assert site.take_tallies() == Tallies(0, 0, 0, 0, 0, 0)

    @both_folds
    def test_drain_combines_remainder(self, combiner):
        site = Site(limit=10, combiner=combiner)
        for _ in range(3):
            site.add("hot", 2)
        assert decoded(site.drain()) == [("hot", 6)]
        assert site.table.occupancy_bytes == 0
        # The drain's combine is user work but not hash-table work.
        tallies = site.take_tallies()
        assert (tallies.combines, tallies.combine_in, tallies.combine_out) == (0, 3, 1)

    @both_folds
    def test_drain_deterministic_order(self, combiner):
        site = Site(keys=("b", "a", "c"), combiner=combiner)
        for k in ("c", "a", "b"):
            site.add(k, 1)
        assert [k for k, _ in decoded(site.drain())] == ["a", "b", "c"]

    def test_without_combiner_values_accumulate(self):
        site = Site(combiner=None, limit=4)
        for _ in range(6):
            site.add("hot", 1)
        assert len(site.drain()) == 6  # nothing combined, all values preserved
        assert site.take_tallies().combine_in == 0

    @both_folds
    def test_totals_preserved_mixed_keys(self, combiner):
        site = Site(limit=3, budget=1 << 20, combiner=combiner)
        for _ in range(25):
            site.add("hot", 1)
            site.add("warm", 2)
        totals = {"hot": 0, "warm": 0}
        for key, number in decoded(site.drain() + site.overflowed):
            totals[key] += number
        assert totals == {"hot": 25, "warm": 50}

    @pytest.mark.parametrize("agg, expected", [("min", -7), ("max", 9)])
    def test_min_max_fold_in_place(self, agg, expected):
        site = Site(keys=("hot",), limit=3, combiner=COMBINERS[agg, VIntWritable])
        assert site.table.fold == agg
        for number in (3, -7, 9, 0, 5):
            site.add("hot", number)
        assert decoded(site.drain()) == [("hot", expected)]

    def test_monoid_fold_fails_where_combine_would(self):
        # Two IntWritables that each fit but whose sum does not: the
        # generic fold's combine() raises building the aggregate.
        site = Site(keys=("hot",), limit=2, combiner=COMBINERS["sum", IntWritable],
                    value_cls=IntWritable)
        assert site.table.fold == "sum"
        site.add("hot", 2**31 - 1)
        with pytest.raises(UserCodeError, match="combine"):
            site.add("hot", 1)


class TestOverflow:
    def test_overflow_when_budget_exceeded(self):
        # Tiny budget with an inflating combiner-free table must overflow
        # (values are multi-byte so 40 of them exceed 64 bytes).
        site = Site(budget=64, limit=100, combiner=None)
        for i in range(40):
            site.add("hot", 10**9 + i)
        assert site.overflowed, "expected overflow to the spill path"
        assert site.table.occupancy_bytes <= 64
        assert site.take_tallies().evictions == len(site.overflowed)

    def test_no_records_lost_on_overflow(self):
        site = Site(budget=64, limit=100, combiner=None)
        n = 50
        for i in range(n):
            site.add("hot", 10**9 + i)
        assert len(site.overflowed) + len(site.drain()) == n

    @both_folds
    def test_evicts_the_fullest_key_ties_by_key_bytes(self, combiner):
        site = Site(keys=("aa", "bb", "cc"), budget=16, limit=100, combiner=combiner)
        site.add("bb", 10**9)  # 2 key bytes + a 5-byte value
        site.add("aa", 10**9)
        assert (site.overflowed, site.table.occupancy_bytes) == ([], 14)
        site.add("cc", 1)  # 17 > 16; "aa" and "bb" tie for fullest
        assert decoded(site.overflowed) == [("aa", 10**9)]
        # Only the values leave: the key's bytes stay charged.
        assert site.table.occupancy_bytes == 12
        tallies = site.take_tallies()
        # A victim is combined before it leaves, even a lone value.
        assert (tallies.combines, tallies.combine_in, tallies.combine_out) == (1, 1, 1)
        assert tallies.evictions == 1

        site.add("bb", 10**9)  # 17 again; "bb" now holds the most
        assert decoded(site.overflowed)[1:] == [("bb", 2 * 10**9)]
        assert decoded(site.drain()) == [("cc", 1)]

    @both_folds
    def test_combine_tallies_wait_for_the_evictions(self, combiner):
        # An evicted record can cut a spill, which settles the tallies:
        # the insert's own combines must not be visible to it yet.
        job = make_wordcount_job(b"hot\n", {
            Keys.FREQBUF_ENABLED: True,
            Keys.SPILL_BUFFER_BYTES: 4096,
            Keys.FREQBUF_BUFFER_FRACTION: 0.001,
        })
        job.combiner_factory = combiner
        collector = build_collector(
            job, "t0", LocalDisk(), TaskInstruments(Ledger()), Counters(),
            {SHARED_FREQUENT_KEYS: frozenset({Text("hot")})},
        )
        assert collector.hash_budget_bytes == 5
        seen_by_spill_path = []
        collect = collector.inner.collect_serialized

        def spy(key_bytes, value_bytes, count_output=True):
            tallies = collector._tallies
            seen_by_spill_path.append((tallies.hits, tallies.combines, tallies.combine_in))
            collect(key_bytes, value_bytes, count_output)

        collector.inner.collect_serialized = spy
        collector.collect(Text("hot"), VIntWritable(10**6))  # 3 + 3 bytes > 5
        assert seen_by_spill_path == [(1, 0, 0)]
        after = collector._tallies
        assert (after.combines, after.combine_in, after.evictions) == (1, 1, 1)

    def test_rekeyed_combiner_output_goes_to_the_spill_path(self):
        site = Site(limit=2, combiner=RekeyingCombiner)
        assert site.table.fold is None  # a rewritten key defeats the proof
        site.add("hot", 1)
        site.add("hot", 2)
        # The aggregate cannot stay in "hot"'s slot.
        assert decoded(site.overflowed) == [("hot!", 3)]
        assert site.table.occupancy_bytes == len(b"hot")
        tallies = site.take_tallies()
        assert (tallies.combine_in, tallies.combine_out, tallies.evictions) == (2, 1, 1)
        assert site.drain() == []

    def test_safe_inserts_bound_what_a_deferred_hit_can_add(self):
        # Only a proven fold of vints defers.  It may defer forever when
        # every slot at its fullest (combine_at ten-byte vints) fits the
        # budget, else for the headroom over the longest key plus vint.
        keys = [Text(k).to_bytes() for k in ("k0", "k1", "longer")]
        fullest = sum(map(len, keys)) + len(keys) * 4 * VINT_MAX_SIZE
        proven = runner_for(TemplateSumCombiner())
        assert FoldTable(proven, 4, keys=keys, budget_bytes=fullest).safe_inserts() == sys.maxsize
        table = FoldTable(proven, 4, keys=keys, budget_bytes=fullest - 1)
        assert table.safe_inserts() == (fullest - 1) // (len(Text("longer").to_bytes()) + 10)
        for runner in (runner_for(LoopSumCombiner()),
                       runner_for(COMBINERS["sum", IntWritable](), IntWritable)):
            assert FoldTable(runner, 4, keys=keys, budget_bytes=1 << 20).safe_inserts() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FoldTable(None, 8, keys=set(), budget_bytes=0)
        with pytest.raises(ValueError):
            FoldTable(None, 1, keys=set(), budget_bytes=10)


# From "fits everything" down to a one-byte table that overflows on
# every insert.
BUDGETS = [1 << 20, 256, 64, 16, 1]
#: "k3" is drawn too, and never admitted.
ADMITTED = ("k0", "k1", "k2")


@settings(max_examples=60, deadline=None)
@given(
    agg=st.sampled_from(["sum", "min", "max"]),
    value_cls=st.sampled_from([VIntWritable, IntWritable, LongWritable]),
    combine_at=st.sampled_from([2, 3, 8, 16]),
    budget=st.sampled_from(BUDGETS),
    inserts=st.lists(
        st.tuples(st.sampled_from(["k0", "k1", "k2", "k3"]), st.integers(-(10**6), 10**6)),
        max_size=60,
    ),
)
def test_generic_and_proven_folds_agree(agg, value_cls, combine_at, budget, inserts):
    """The proven fold is unobservable at the table: the same records
    leave, in the same order, with the same tallies, as when the user's
    combine() runs on value bytes."""
    template = COMBINERS[agg, value_cls]
    sites = [
        Site(keys=ADMITTED, budget=budget, limit=combine_at, value_cls=value_cls,
             combiner=combiner)
        for combiner in (template, lambda: HiddenCombiner(template()))
    ]
    assert [site.table.fold for site in sites] == [agg, None]
    for key, number in inserts:
        if key in ADMITTED:
            for site in sites:
                site.add(key, number)
            assert len({site.table.occupancy_bytes for site in sites}) == 1
    proven, generic = ((site.drain(), site.overflowed, site.take_tallies()) for site in sites)
    assert proven == generic


@settings(max_examples=60, deadline=None)
@given(
    agg=st.sampled_from(["sum", "min", "max"]),
    combine_at=st.sampled_from([2, 3, 8, 16]),
    budget=st.sampled_from(BUDGETS + [160, 120]),
    catch_up_every=st.sampled_from([1, 7, 1000]),  # settlements
    inserts=st.lists(
        st.tuples(st.sampled_from(ADMITTED), st.integers(-(2**40), 2**40) | st.integers(-70, 70)),
        max_size=80,
    ),
)
# The last combine's W(40) is one byte; the slot's running total, 70, two.
@example("sum", 8, 1 << 20, 1000, [("k0", 5)] * 8 + [("k0", 30)])
def test_deferred_inserts_catch_up_to_the_exact_ones(agg, combine_at, budget, catch_up_every,
                                                     inserts):
    """A vint fold's deferred hits, caught up at any points, leave the
    same records, in the same order, with the same tallies and the same
    occupancy as one exact insert per hit."""
    sites = [
        Site(keys=ADMITTED, budget=budget, limit=combine_at, combiner=COMBINERS[agg, VIntWritable])
        for _ in range(2)
    ]
    sites[0].defers = True
    for done, (key, number) in enumerate(inserts, 1):
        for site in sites:
            site.add(key, number)
        if done % catch_up_every == 0 or done == len(inserts):
            sites[0].catch_up()
            assert sites[0].table.occupancy_bytes == sites[1].table.occupancy_bytes
    deferred, exact = ((site.drain(), site.overflowed, site.take_tallies()) for site in sites)
    assert deferred == exact
