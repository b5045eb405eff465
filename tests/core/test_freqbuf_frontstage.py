"""Differential tests for the frequency-buffering front stage.

The front stage folds hits in one of two ways — the generic fold (value
bytes, the user's ``combine()``) or the monoid fold (a raw int per slot,
``combine()`` only accounted) — and the node-combine stage shares
both.  Neither may be observable: same output as with the optimization
off, and identical counters and ledger between the two folds, floats
included.  The generic fold is forced the way ``bench/tracing.py`` ends
up forcing it: a delegating proxy hides the combiner's source from the
fold matcher.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import JobConf, Keys
from repro.engine.api import Combiner, Mapper, Reducer
from repro.engine.counters import Counter
from repro.engine.foldtable import FoldTable
from repro.engine.inputformat import TextInput
from repro.engine.job import JobSpec
from repro.engine.runner import LocalJobRunner
from repro.errors import JobFailedError, UserCodeError
from repro.experiments.common import build_app
from repro.lint.proofs import combiner_fold
from repro.serde.numeric import IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text


def _zipf_corpus(lines: int = 70, words_per_line: int = 6, vocabulary: int = 40) -> bytes:
    rng = random.Random(18)
    words = [f"w{rank}" for rank in range(vocabulary)]
    weights = [1.0 / (rank + 1) for rank in range(vocabulary)]
    return "".join(
        " ".join(rng.choices(words, weights, k=words_per_line)) + "\n"
        for _ in range(lines)
    ).encode()


CORPUS = _zipf_corpus()


class SignedNumberMapper(Mapper):
    """Emit ``(word, W(n · scale))`` with small signed ``n``, so min and
    max have something to choose between and sums cancel; a *scale* of
    64 or more makes multi-byte vints and large negatives, and 2**27
    ints that fit an ``IntWritable`` one at a time but not summed."""

    def __init__(self, value_cls, scale=1):
        self.value_cls, self.scale = value_cls, scale

    def map(self, key, value, emit):
        for position, word in enumerate(value.value.split()):
            number = (len(word) * 7 + position * 13) % 23 - 11
            emit(Text(word), self.value_cls(number * self.scale))


class FoldReducer(Reducer):
    def __init__(self, agg, value_cls):
        self.agg, self.value_cls = agg, value_cls

    def reduce(self, key, values, emit):
        emit(key, self.value_cls(self.agg(v.value for v in values)))


# One literal template per (aggregate, value class): the matcher reads
# source, so these cannot be manufactured in a loop.
class SumVInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


class MinVInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(min(v.value for v in values)))


class MaxVInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(max(v.value for v in values)))


class SumInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, IntWritable(sum(v.value for v in values)))


class MinInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, IntWritable(min(v.value for v in values)))


class MaxInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, IntWritable(max(v.value for v in values)))


class SumLong(Combiner):
    def combine(self, key, values, emit):
        emit(key, LongWritable(sum(v.value for v in values)))


class MinLong(Combiner):
    def combine(self, key, values, emit):
        emit(key, LongWritable(min(v.value for v in values)))


class MaxLong(Combiner):
    def combine(self, key, values, emit):
        emit(key, LongWritable(max(v.value for v in values)))


COMBINERS = {
    (agg.__name__, value_cls): combiner
    for (agg, value_cls), combiner in {
        (sum, VIntWritable): SumVInt, (min, VIntWritable): MinVInt, (max, VIntWritable): MaxVInt,
        (sum, IntWritable): SumInt, (min, IntWritable): MinInt, (max, IntWritable): MaxInt,
        (sum, LongWritable): SumLong, (min, LongWritable): MinLong, (max, LongWritable): MaxLong,
    }.items()
}
AGGS = {"sum": sum, "min": min, "max": max}


class HiddenCombiner:
    """Delegates like ``bench/tracing.py::_TracedCombiner``: same
    behaviour, but nothing in *this* class's source to prove a fold."""

    def __init__(self, inner):
        self._inner = inner

    def combine(self, key, values, emit):
        self._inner.combine(key, values, emit)


def make_job(agg: str, value_cls, conf: dict, scale: int = 1, corpus: bytes = CORPUS) -> JobSpec:
    combiner_cls = COMBINERS[agg, value_cls]
    return JobSpec(
        name="frontstage",
        input_format=TextInput(corpus, split_size=len(corpus) // 2 + 1),
        mapper_factory=lambda: SignedNumberMapper(value_cls, scale),
        reducer_factory=lambda: FoldReducer(AGGS[agg], value_cls),
        combiner_factory=combiner_cls,
        map_output_key_cls=Text,
        map_output_value_cls=value_cls,
        conf=JobConf({Keys.NUM_REDUCERS: 2, Keys.TASK_MAX_ATTEMPTS: 1, **conf}),
    )


def run_or_error(job: JobSpec):
    try:
        return LocalJobRunner().run(job)
    except JobFailedError as failure:
        return failure.__cause__


def generic_twin(job: JobSpec) -> JobSpec:
    """*job* with its combiner behind a proxy that hides the source."""
    combiner_cls = job.combiner_factory
    return dataclasses.replace(job, combiner_factory=lambda: HiddenCombiner(combiner_cls()))


@settings(max_examples=40, deadline=None)
@given(
    agg=st.sampled_from(sorted(AGGS)),
    value_cls=st.sampled_from([VIntWritable, IntWritable, LongWritable]),
    # Share of a 1 KiB buffer: from "fits everything" down to a
    # one-byte table that overflows on every insert.
    hash_fraction=st.sampled_from([0.5, 0.08, 0.02, 0.0005]),
    k=st.sampled_from([2, 6, 25]),
    node_buffer=st.sampled_from([64, 1 << 20]),  # 64 bytes parks runs
    scale=st.sampled_from([1, 64, 1 << 14, 1 << 27]),  # one- to five-byte vints
)
def test_folds_are_unobservable(agg, value_cls, hash_fraction, k, node_buffer, scale):
    conf = {
        # Small and adaptive, so that evictions cut spills and the
        # spill-matcher acts on the produce work the settlement reports.
        Keys.SPILL_BUFFER_BYTES: 1024,
        Keys.SPILLMATCHER_ENABLED: True,
        Keys.NODE_COMBINE: True,
        Keys.NODE_COMBINE_BUFFER_BYTES: node_buffer,
        Keys.FREQBUF_K: k,
        Keys.FREQBUF_SAMPLE_FRACTION: 0.2,
        Keys.FREQBUF_BUFFER_FRACTION: hash_fraction,
    }
    monoid_job = make_job(agg, value_cls, {**conf, Keys.FREQBUF_ENABLED: True}, scale)
    generic_job = generic_twin(monoid_job)
    assert combiner_fold(monoid_job.combiner_factory, value_cls) == agg
    assert combiner_fold(HiddenCombiner, value_cls) is None

    monoid = run_or_error(monoid_job)
    generic = run_or_error(generic_job)
    if isinstance(generic, Exception):
        # The sum leaves 32 bits inside a combine: W(total) fails as the
        # combine() that would have built it, in the same words.
        assert (agg, value_cls, scale) == ("sum", IntWritable, 1 << 27)
        for error in (monoid, generic):
            assert isinstance(error, UserCodeError) and error.stage == "combine"
        assert monoid.message == generic.message
        return

    plain = run_or_error(make_job(agg, value_cls, conf, scale))
    # Without the table, combines group an IntWritable sum otherwise and
    # may overflow where the table's did not.
    if not isinstance(plain, Exception):
        assert monoid.output_digest() == plain.output_digest()
    assert monoid.output_digest() == generic.output_digest()
    assert monoid.counters.get(Counter.FREQBUF_HITS) > 0
    assert monoid.counters.as_dict() == generic.counters.as_dict()
    assert monoid.ledger.as_dict() == generic.ledger.as_dict()


def test_wordcount_combined_matches_the_parent_commit_golden():
    # Bulk settlement and the bytes-keyed table changed how the front
    # stage accounts, not what: every counter and every ledger entry of
    # the paper's Combined configuration (+ node combine) is the value
    # the per-record, Writable-keyed implementation produced.
    golden = json.loads(
        (Path(__file__).parent / "golden_wordcount_combined.json").read_text()
    )
    app = build_app("wordcount", "combined", scale=0.02, extra_conf={Keys.NODE_COMBINE: True})
    result = LocalJobRunner().run(app.job)
    assert result.output_digest() == golden["digest"]
    assert result.counters.as_dict() == golden["counters"]
    assert result.ledger.as_dict() == golden["ledger"]


def test_budget_crossed_only_after_a_long_run_of_deferred_hits(monkeypatch):
    # A vint fold defers its hits while none can reach the budget; here
    # the table fills slowly, so the countdown runs out many times and
    # the first eviction comes only after a long run of deferred hits.
    deferred, evictions = [], []
    catch_up, add = FoldTable.catch_up, FoldTable.add

    def counting_catch_up(self):
        made = catch_up(self)
        if not evictions:
            deferred.append(made[0])
        return made

    def counting_add(self, slot, item, size):
        outcome = add(self, slot, item, size)
        if outcome is not None and outcome[0]:
            evictions.append(len(outcome[0]))
        return outcome

    conf = {
        Keys.SPILL_BUFFER_BYTES: 4096,
        Keys.FREQBUF_ENABLED: True,
        Keys.FREQBUF_K: 25,
        Keys.FREQBUF_SAMPLE_FRACTION: 0.2,
        Keys.FREQBUF_BUFFER_FRACTION: 0.06,  # a 246-byte table
    }
    job = make_job("sum", VIntWritable, conf, scale=64, corpus=_zipf_corpus(lines=400))
    with monkeypatch.context() as patch:
        patch.setattr(FoldTable, "catch_up", counting_catch_up)
        patch.setattr(FoldTable, "add", counting_add)
        monoid = LocalJobRunner().run(job)
    generic = LocalJobRunner().run(generic_twin(job))

    assert sum(deferred) >= 200 and len(deferred) > 50
    assert monoid.counters.get(Counter.FREQBUF_EVICTIONS) == sum(evictions) > 0
    assert monoid.output_digest() == generic.output_digest()
    assert monoid.counters.as_dict() == generic.counters.as_dict()
    assert monoid.ledger.as_dict() == generic.ledger.as_dict()
