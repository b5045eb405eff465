"""Tests for the two-stage frequency-buffering collector."""

import gc
import weakref

import pytest

from repro.config import Keys
from repro.core.freqbuf.collector import (
    SHARED_FREQUENT_KEYS,
    FrequencyBufferingCollector,
    Stage,
    Tallies,
)
from repro.engine.counters import Counter
from repro.engine.foldtable import FoldTable
from repro.engine.instrumentation import Op
from repro.engine.runner import LocalJobRunner, build_collector
from repro.exec import base
from repro.experiments.common import build_app
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from tests.conftest import make_wordcount_job


def freq_conf(k=8, s=0.2, extra=None):
    conf = {
        Keys.FREQBUF_ENABLED: True,
        Keys.FREQBUF_K: k,
        Keys.FREQBUF_SAMPLE_FRACTION: s,
    }
    if extra:
        conf.update(extra)
    return conf


def run_job(data, conf_overrides, **kwargs):
    job = make_wordcount_job(data, conf_overrides, **kwargs)
    return LocalJobRunner().run(job)


class TestCorrectness:
    def test_output_identical_to_baseline(self, tiny_text, wordcount_truth):
        result = run_job(tiny_text, freq_conf())
        counts = {k.value: v.value for k, v in result.output_pairs()}
        assert counts == wordcount_truth(tiny_text)

    def test_output_identical_without_combiner(self, tiny_text, wordcount_truth):
        # No combiner: the hash buffer degenerates to an accumulate-and-
        # drain path; semantics must still hold.
        result = run_job(tiny_text, freq_conf(), combiner=False)
        counts = {k.value: v.value for k, v in result.output_pairs()}
        assert counts == wordcount_truth(tiny_text)

    def test_autotune_output_identical(self, tiny_text, wordcount_truth):
        result = run_job(tiny_text, freq_conf(extra={Keys.FREQBUF_AUTOTUNE: True}))
        counts = {k.value: v.value for k, v in result.output_pairs()}
        assert counts == wordcount_truth(tiny_text)

    def test_tiny_hash_budget_still_correct(self, tiny_text, wordcount_truth):
        overrides = freq_conf(extra={
            Keys.SPILL_BUFFER_BYTES: 2048,
            Keys.FREQBUF_BUFFER_FRACTION: 0.05,  # ~100 bytes: constant overflow
        })
        result = run_job(tiny_text, overrides)
        counts = {k.value: v.value for k, v in result.output_pairs()}
        assert counts == wordcount_truth(tiny_text)


class TestOptimizationBehaviour:
    def test_hits_recorded_and_work_reduced(self, tiny_text):
        baseline = run_job(tiny_text, None)
        freq = run_job(tiny_text, freq_conf())
        assert freq.counters.get(Counter.FREQBUF_HITS) > 0
        assert freq.ledger.get(Op.SORT) < baseline.ledger.get(Op.SORT)
        assert freq.ledger.get(Op.EMIT) < baseline.ledger.get(Op.EMIT)

    def test_profiling_charges_profile_op(self, tiny_text):
        freq = run_job(tiny_text, freq_conf())
        assert freq.ledger.get(Op.PROFILE) > 0
        assert freq.ledger.get(Op.HASHBUF) > 0

    def test_profiled_records_tracked(self, tiny_text):
        freq = run_job(tiny_text, freq_conf(s=0.3))
        profiled = freq.counters.get(Counter.FREQBUF_PROFILED_RECORDS)
        total = freq.counters.get(Counter.MAP_OUTPUT_RECORDS)
        assert 0 < profiled < total

    def test_frequent_set_shared_across_tasks(self, tiny_text):
        job = make_wordcount_job(tiny_text, freq_conf(), num_splits=3)
        result = LocalJobRunner().run(job)
        # Only the first task profiles; later tasks skip straight to the
        # optimization stage, so total profiled records < one task's output.
        per_task_profiled = [
            r.counters.get(Counter.FREQBUF_PROFILED_RECORDS) for r in result.map_results
        ]
        assert per_task_profiled[0] > 0
        assert all(p == 0 for p in per_task_profiled[1:])

    def test_sharing_disabled_profiles_every_task(self, tiny_text):
        overrides = freq_conf(extra={Keys.FREQBUF_SHARE_ACROSS_TASKS: False})
        job = make_wordcount_job(tiny_text, overrides, num_splits=3)
        result = LocalJobRunner().run(job)
        per_task_profiled = [
            r.counters.get(Counter.FREQBUF_PROFILED_RECORDS) for r in result.map_results
        ]
        assert all(p > 0 for p in per_task_profiled)


class TestSettlement:
    def _optimizing_collector(self, tiny_text, extra, combiner=True):
        from repro.engine.counters import Counters
        from repro.engine.instrumentation import Ledger, TaskInstruments
        from repro.io.blockdisk import LocalDisk

        job = make_wordcount_job(tiny_text, freq_conf(extra=extra), combiner=combiner)
        shared = {SHARED_FREQUENT_KEYS: frozenset({Text("apple"), Text("fig")})}
        instruments, counters = TaskInstruments(Ledger()), Counters()
        collector = build_collector(job, "t0", LocalDisk(), instruments, counters, shared)
        return job, collector, instruments, counters

    def test_nothing_is_charged_per_record_and_everything_at_flush(self, tiny_text):
        job, collector, instruments, counters = self._optimizing_collector(tiny_text, None)
        for _ in range(5):
            collector.collect(Text("apple"), VIntWritable(1))
        collector.collect(Text("kiwi"), VIntWritable(1))
        assert counters.get(Counter.FREQBUF_HITS) == 0
        assert instruments.ledger.get(Op.HASHBUF) == 0
        collector.flush()
        assert counters.get(Counter.FREQBUF_HITS) == 5
        assert counters.get(Counter.FREQBUF_MISSES) == 1
        assert counters.get(Counter.MAP_OUTPUT_RECORDS) == 6
        assert instruments.ledger.get(Op.HASHBUF) == 6 * job.cost_model.hash_record

    def test_spill_produce_work_includes_the_front_stage(self, tiny_text):
        # Settled before the spill reads the map-thread meter: whenever a
        # spill has just been cut, the spills' T_p add up to every probe
        # and every emit so far, the triggering record's included.  (No
        # combiner, so that no eager combine adds to the probes.)
        job, collector, instruments, _ = self._optimizing_collector(
            tiny_text, {Keys.SPILL_BUFFER_BYTES: 256}, combiner=False
        )
        model = job.cost_model
        spills = collector.timeline.result.spills
        expected = 0.0
        checked = 0
        for i in range(40):
            cold = Text(f"cold{i}")
            collector.collect(Text("apple"), VIntWritable(1))
            collector.collect(cold, VIntWritable(1))
            expected += 2 * model.hash_record + (
                model.serialize_byte * (cold.serialized_size() + 1) + model.collect_record
            )
            if len(spills) > checked:
                checked = len(spills)
                assert sum(spill.produce_work for spill in spills) == expected
        assert checked >= 3

    def test_overflow_cut_spills_do_not_charge_their_combines_twice(self, tiny_text, monkeypatch):
        # A table that overflows on every hit keeps cutting spills from
        # inside an insert.  COMBINE must still be: the user body once
        # per value combined anywhere, plus the serialized path's
        # per-value overhead for the values the spill/merge path combined.
        job, collector, instruments, counters = self._optimizing_collector(
            tiny_text,
            {Keys.SPILL_BUFFER_BYTES: 512, Keys.FREQBUF_BUFFER_FRACTION: 0.002},
        )
        in_table = []  # values each table combine consumed
        publish = Tallies.publish

        def spy(tallies, left, combined, eager=True):
            in_table.extend(n_in for n_in, _ in combined)
            publish(tallies, left, combined, eager)

        monkeypatch.setattr(Tallies, "publish", spy)
        for i in range(300):
            collector.collect(Text(("apple", "fig", f"cold{i % 7}")[i % 3]), VIntWritable(1))
        collector.flush()
        assert counters.get(Counter.FREQBUF_EVICTIONS) > 100
        assert counters.get(Counter.SPILLS) > 3
        in_table = sum(in_table)
        combined = counters.get(Counter.COMBINE_INPUT_RECORDS)
        assert 0 < in_table < combined
        assert instruments.ledger.get(Op.COMBINE) == (
            job.user_costs.combine_record * combined
            + job.cost_model.combine_record_overhead * (combined - in_table)
        )

    def test_hits_fold_without_an_exact_insert_at_bench_scale(self, monkeypatch):
        # wordcount Combined as the benchmark's wc-optimized runs it: the
        # table can never fill, so no hit takes the exact insert
        # (FoldTable.add), and the deferred hits are folded in only at
        # settlements — at most one a spill and one a task's flush.
        calls = {"add": 0, "catch_up": 0}
        add, catch_up = FoldTable.add, FoldTable.catch_up

        def counting(name, method):
            def spy(*args):
                calls[name] += 1
                return method(*args)

            return spy

        monkeypatch.setattr(FoldTable, "add", counting("add", add))
        monkeypatch.setattr(FoldTable, "catch_up", counting("catch_up", catch_up))
        app = build_app("wordcount", "combined", scale=0.25, num_splits=8,
                        extra_conf={Keys.NODE_COMBINE: True})
        result = LocalJobRunner().run(app.job)
        counters = result.counters
        assert counters.get(Counter.FREQBUF_HITS) > 40_000
        assert counters.get(Counter.FREQBUF_EVICTIONS) == 0
        assert calls["add"] == 0
        assert 0 < calls["catch_up"] <= counters.get(Counter.SPILLS) + len(result.map_results)


class TestStageMachine:
    def test_shared_state_skips_profiling(self, tiny_text):
        from repro.engine.counters import Counters
        from repro.engine.instrumentation import Ledger, TaskInstruments
        from repro.io.blockdisk import LocalDisk

        job = make_wordcount_job(tiny_text, freq_conf())
        shared = {SHARED_FREQUENT_KEYS: frozenset({Text("apple")})}
        collector = build_collector(
            job, "t0", LocalDisk(), TaskInstruments(Ledger()), Counters(), shared
        )
        assert isinstance(collector, FrequencyBufferingCollector)
        assert collector.stage is Stage.OPTIMIZE

    def test_starts_in_profile_stage(self, tiny_text):
        from repro.engine.counters import Counters
        from repro.engine.instrumentation import Ledger, TaskInstruments
        from repro.io.blockdisk import LocalDisk

        job = make_wordcount_job(tiny_text, freq_conf())
        collector = build_collector(
            job, "t0", LocalDisk(), TaskInstruments(Ledger()), Counters(), {}
        )
        assert collector.stage is Stage.PROFILE

    def test_autotune_starts_in_preprofile(self, tiny_text):
        from repro.engine.counters import Counters
        from repro.engine.instrumentation import Ledger, TaskInstruments
        from repro.io.blockdisk import LocalDisk

        job = make_wordcount_job(
            tiny_text, freq_conf(extra={Keys.FREQBUF_AUTOTUNE: True})
        )
        collector = build_collector(
            job, "t0", LocalDisk(), TaskInstruments(Ledger()), Counters(), {}
        )
        assert collector.stage is Stage.PREPROFILE


class TestLifetime:
    def test_collectors_die_without_the_cycle_collector(self, monkeypatch):
        """The front stage's settle hook on the inner collector is
        non-owning: with gc off, reference counting alone frees both
        collectors of every map task once the job is done."""
        probes = []

        def probed(*args):
            collector = build_collector(*args)
            probes.extend((weakref.ref(collector), weakref.ref(collector.inner)))
            return collector

        monkeypatch.setattr(base, "build_collector", probed)
        job = build_app("wordcount", "freq", scale=0.02, num_splits=2).job
        gc.disable()
        try:
            LocalJobRunner().run(job)
            alive = sum(probe() is not None for probe in probes)
        finally:
            gc.enable()
        assert len(probes) == 4
        assert alive == 0
