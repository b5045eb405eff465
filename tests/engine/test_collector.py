"""Tests for the standard map-output collector (spill/sort/combine/merge)."""

import inspect
from dataclasses import replace

import pytest

from repro.config import Keys
from repro.core.freqbuf.collector import SHARED_FREQUENT_KEYS
from repro.engine.api import HashPartitioner
from repro.engine.collector import StandardCollector
from repro.engine.combiner import CombinerRunner
from repro.engine.costmodel import DEFAULT_COST_MODEL, CostModel, UserCodeCosts
from repro.engine.counters import Counter, Counters
from repro.engine.instrumentation import Ledger, Op, TaskInstruments
from repro.engine.runner import build_collector
from repro.engine.spillpolicy import StaticSpillPolicy
from repro.errors import SpillBufferError
from repro.io.blockdisk import LocalDisk
from repro.io.compression import ZlibCodec
from repro.io.spillfile import read_segment
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from tests.conftest import SumCombiner, make_wordcount_job


def make_collector(
    capacity=512,
    partitions=2,
    combiner=True,
    spill_percent=0.8,
):
    counters = Counters()
    instruments = TaskInstruments(Ledger())
    runner = None
    if combiner:
        runner = CombinerRunner(SumCombiner(), Text, VIntWritable, UserCodeCosts(), counters)
    collector = StandardCollector(
        task_id="t0",
        disk=LocalDisk(),
        num_partitions=partitions,
        partitioner=HashPartitioner(),
        policy=StaticSpillPolicy(spill_percent),
        capacity_bytes=capacity,
        cost_model=DEFAULT_COST_MODEL,
        instruments=instruments,
        counters=counters,
        combiner_runner=runner,
    )
    return collector, counters, instruments


def collect_words(collector, words):
    for word in words:
        collector.collect(Text(word), VIntWritable(1))


def read_all(collector, index):
    out = []
    for p in range(collector.num_partitions):
        out.extend(read_segment(collector.disk, index, p))
    return out


class TestSpillingAndMerge:
    def test_output_is_sorted_within_partition(self):
        collector, _, _ = make_collector()
        collect_words(collector, ["pear", "apple", "fig", "apple", "kiwi"] * 30)
        index = collector.flush()
        for p in range(2):
            keys = [k for k, _ in read_segment(collector.disk, index, p)]
            assert keys == sorted(keys)

    def test_combiner_collapses_duplicates(self):
        collector, counters, _ = make_collector()
        collect_words(collector, ["same"] * 200)
        index = collector.flush()
        records = read_all(collector, index)
        assert len(records) == 1
        key, value = records[0]
        assert Text.from_bytes(key).value == "same"
        assert VIntWritable.from_bytes(value).value == 200

    def test_no_combiner_keeps_duplicates(self):
        collector, _, _ = make_collector(combiner=False)
        collect_words(collector, ["same"] * 50)
        index = collector.flush()
        assert len(read_all(collector, index)) == 50

    def test_multiple_spills_happen(self):
        collector, counters, _ = make_collector(capacity=256)
        collect_words(collector, [f"w{i}" for i in range(200)])
        collector.flush()
        assert counters.get(Counter.SPILLS) > 1

    def test_single_spill_promoted_without_merge(self):
        collector, counters, instruments = make_collector(capacity=1 << 20)
        collect_words(collector, ["a", "b", "c"])
        index = collector.flush()
        assert counters.get(Counter.SPILLS) == 1
        assert instruments.ledger.get(Op.MERGE) == 0.0
        assert index.total_records == 3

    def test_merge_charged_with_multiple_spills(self):
        collector, _, instruments = make_collector(capacity=256)
        collect_words(collector, [f"w{i}" for i in range(300)])
        collector.flush()
        assert instruments.ledger.get(Op.MERGE) > 0

    def test_flush_twice_fails(self):
        collector, _, _ = make_collector()
        collector.collect(Text("x"), VIntWritable(1))
        collector.flush()
        with pytest.raises(SpillBufferError):
            collector.flush()

    def test_empty_task_produces_empty_index(self):
        collector, _, _ = make_collector()
        index = collector.flush()
        assert index.total_records == 0
        assert index.num_partitions == 2

    def test_empty_task_in_a_compressed_job_names_its_codec(self):
        # The index is what readers go by: an empty final output of a
        # compressed job must say so like every other map output does.
        collector, _, _ = make_collector()
        collector.codec = ZlibCodec()
        index = collector.flush()
        assert index.total_records == 0
        assert index.codec == "zlib"
        assert read_all(collector, index) == []

    def test_partitioning_is_consistent(self):
        collector, _, _ = make_collector(capacity=256, partitions=3)
        collect_words(collector, [f"w{i}" for i in range(100)] * 2)
        index = collector.flush()
        partitioner = HashPartitioner()
        for p in range(3):
            for key, _ in read_segment(collector.disk, index, p):
                assert partitioner.partition(key, 3) == p


class TestAccounting:
    def test_emit_and_sort_charged(self):
        collector, _, instruments = make_collector()
        collect_words(collector, ["a", "b"] * 50)
        collector.flush()
        ledger = instruments.ledger
        assert ledger.get(Op.EMIT) > 0
        assert ledger.get(Op.SORT) > 0
        assert ledger.get(Op.SPILL_IO) > 0

    def test_output_counters(self):
        collector, counters, _ = make_collector()
        collect_words(collector, ["x"] * 10)
        collector.flush()
        assert counters.get(Counter.MAP_OUTPUT_RECORDS) == 10
        assert counters.get(Counter.COMBINE_INPUT_RECORDS) >= 10

    def test_timeline_records_spills(self):
        collector, counters, _ = make_collector(capacity=256)
        collect_words(collector, [f"w{i}" for i in range(200)])
        collector.flush()
        assert len(collector.timeline.result.spills) == counters.get(Counter.SPILLS)

    def test_collect_serialized_uncounted(self):
        collector, counters, _ = make_collector()
        collector.collect_serialized(b"k", b"\x02", count_output=False)
        assert counters.get(Counter.MAP_OUTPUT_RECORDS) == 0
        collector.collect_serialized(b"k", b"\x02", count_output=True)
        collector.flush()  # output counters are settled at spills and flush
        assert counters.get(Counter.MAP_OUTPUT_RECORDS) == 1

    @pytest.mark.parametrize(
        "model",
        (CostModel(serialize_byte=0.3, collect_record=55.5), DEFAULT_COST_MODEL),
        ids=("fractional", "default"),
    )
    def test_emit_settle_conserves_work(self, tiny_text, model):
        """EMIT and ``MAP_OUTPUT_*``, settled once per spill, equal what
        per-record charging reaches — with the frequency buffer's misses
        entering counted and its evictions and drains uncounted."""
        job = make_wordcount_job(tiny_text, {
            Keys.FREQBUF_ENABLED: True,
            Keys.FREQBUF_K: 2,
            Keys.SPILL_BUFFER_BYTES: 1024,
        })
        job = replace(job, cost_model=model)
        instruments, counters = TaskInstruments(Ledger()), Counters()
        shared = {SHARED_FREQUENT_KEYS: frozenset({Text("apple"), Text("fig")})}
        collector = build_collector(job, "t0", LocalDisk(), instruments, counters, shared)
        buffered = {"records": 0, "bytes": 0, "uncounted": 0}
        collect_serialized = collector.inner.collect_serialized

        def tally(key_bytes, value_bytes, count_output=True):
            buffered["records"] += 1
            buffered["bytes"] += len(key_bytes) + len(value_bytes)
            buffered["uncounted"] += not count_output
            collect_serialized(key_bytes, value_bytes, count_output)

        collector.inner.collect_serialized = tally
        emitted = [(Text(word), VIntWritable(1)) for word in tiny_text.decode().split()]
        for key, value in emitted:
            collector.collect(key, value)
        collector.flush()

        assert counters.get(Counter.SPILLS) > 2
        assert 0 < buffered["uncounted"] < buffered["records"]
        emit = instruments.ledger.work[Op.EMIT]
        expected = model.serialize_byte * buffered["bytes"] + model.collect_record * buffered[
            "records"
        ]
        assert emit == pytest.approx(expected, rel=1e-12)
        if model is DEFAULT_COST_MODEL:
            assert emit == expected
        assert counters.get(Counter.MAP_OUTPUT_RECORDS) == len(emitted)
        assert counters.get(Counter.MAP_OUTPUT_BYTES) == sum(
            len(key.to_bytes()) + len(value.to_bytes()) for key, value in emitted
        )

    def test_collect_neither_counts_nor_charges_per_record(self):
        source = inspect.getsource(StandardCollector.collect)
        assert "counters" not in source and "ledger" not in source
