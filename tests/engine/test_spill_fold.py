"""Differential tests for the proven fold on the serialized combine sites.

Where a combiner's source proves ``emit(key, W(sum|min|max(...)))`` the
``CombinerRunner`` folds raw ints instead of round-tripping writables
through ``combine()`` — inside ``combine_serialized`` and, without
calling the runner at all, in the one bulk loop over sorted runs
(``collector.combine_runs``) that both the per-spill combine and every
end-of-map merge pass run.  Neither may be observable: the same
combiner behind a delegating proxy (which hides the source, as
``bench/tracing.py::_TracedCombiner`` does) takes the generic path and
must produce the same output, counters and ledger, floats included.
"""

from __future__ import annotations

import dataclasses
import functools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import JobConf, Keys
from repro.engine.api import Combiner, FnCombiner, Mapper
from repro.engine.collector import combine_runs
from repro.engine.combiner import CombinerRunner
from repro.engine.costmodel import DEFAULT_COST_MODEL, UserCodeCosts
from repro.engine.counters import Counter, Counters
from repro.engine.inputformat import TextInput
from repro.engine.instrumentation import Ledger
from repro.engine.job import JobSpec
from repro.engine.runner import LocalJobRunner
from repro.errors import JobFailedError, SerdeError, UserCodeError
from repro.serde.numeric import IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text
from tests.core.test_freqbuf_frontstage import (
    AGGS,
    COMBINERS,
    CORPUS,
    FoldReducer,
    HiddenCombiner,
)
from tests.serde.test_int_values import malformed, valid


class ScaledNumberMapper(Mapper):
    """Emit ``(word, W(n · scale))`` with ``n`` in −11..11: negative
    values, multi-byte vints, and — at 2**27 — ints that fit an
    ``IntWritable`` one at a time but not summed."""

    def __init__(self, value_cls, scale):
        self.value_cls, self.scale = value_cls, scale

    def map(self, key, value, emit):
        for position, word in enumerate(value.value.split()):
            number = (len(word) * 7 + position * 13) % 23 - 11
            emit(Text(word), self.value_cls(number * self.scale))


#: Costs that are not small integers, so a change in the order (or the
#: grouping) of the per-group COMBINE float additions would show.
COSTS = dataclasses.replace(DEFAULT_COST_MODEL, combine_record_overhead=0.1)
USER_COSTS = UserCodeCosts(combine_record=0.7)


def make_job(agg: str, value_cls, scale: int, conf: dict) -> JobSpec:
    return JobSpec(
        name="spillfold",
        input_format=TextInput(CORPUS, split_size=len(CORPUS) // 2 + 1),
        mapper_factory=lambda: ScaledNumberMapper(value_cls, scale),
        reducer_factory=lambda: FoldReducer(AGGS[agg], value_cls),
        combiner_factory=COMBINERS[agg, value_cls],
        map_output_key_cls=Text,
        map_output_value_cls=value_cls,
        cost_model=COSTS,
        user_costs=USER_COSTS,
        conf=JobConf({Keys.NUM_REDUCERS: 2, Keys.TASK_MAX_ATTEMPTS: 1, **conf}),
    )


def run_or_error(job: JobSpec):
    try:
        return LocalJobRunner().run(job)
    except JobFailedError as failure:
        return failure.__cause__


def proven_and_generic(proven_job: JobSpec):
    """Run *proven_job* and the same job with its combiner behind a
    proxy that hides the source (so it takes the generic path)."""
    combiner_cls = proven_job.combiner_factory
    generic_job = dataclasses.replace(
        proven_job, combiner_factory=lambda: HiddenCombiner(combiner_cls())
    )
    return run_or_error(proven_job), run_or_error(generic_job)


def assert_same_run(proven, generic) -> None:
    assert proven.output_digest() == generic.output_digest()
    assert proven.counters.get(Counter.COMBINE_INPUT_RECORDS) > 0
    assert proven.counters.as_dict() == generic.counters.as_dict()
    assert proven.ledger.as_dict() == generic.ledger.as_dict()


@settings(max_examples=40, deadline=None)
@given(
    agg=st.sampled_from(sorted(AGGS)),
    value_cls=st.sampled_from([VIntWritable, IntWritable, LongWritable]),
    scale=st.sampled_from([1, 1 << 20, 1 << 27]),
    buffer_bytes=st.sampled_from([512, 2048, 1 << 16]),  # ~14 spills a task .. one
    sort_factor=st.sampled_from([2, 10]),  # 2: multi-pass merges
    codec=st.sampled_from(["identity", "zlib"]),
    spill_matcher=st.booleans(),
)
def test_proven_fold_is_unobservable(
    agg, value_cls, scale, buffer_bytes, sort_factor, codec, spill_matcher
):
    proven_job = make_job(agg, value_cls, scale, {
        Keys.SPILL_BUFFER_BYTES: buffer_bytes,
        Keys.SORT_FACTOR: sort_factor,
        Keys.SPILL_COMPRESSION: codec,
        Keys.SPILLMATCHER_ENABLED: spill_matcher,
    })
    proven, generic = proven_and_generic(proven_job)

    if agg == "sum" and value_cls is IntWritable and scale == 1 << 27:
        # The sum leaves 32 bits inside a combine: W(total) fails as the
        # combine() that would have built it, in the same words.
        for error in (proven, generic):
            assert isinstance(error, UserCodeError) and error.stage == "combine"
        assert proven.message == generic.message
        return

    assert_same_run(proven, generic)


@pytest.mark.parametrize("agg", sorted(AGGS))
def test_intermediate_merge_passes_fold_like_the_generic_path(agg):
    """``sort_factor=2`` over many spills a task: the intermediate merge
    passes, not only the final one, fold through the bulk loop."""
    proven, generic = proven_and_generic(make_job(agg, VIntWritable, 1 << 20, {
        Keys.SPILL_BUFFER_BYTES: 512,
        Keys.SORT_FACTOR: 2,
    }))
    map_tasks = len(proven.map_results)
    assert proven.counters.get(Counter.SPILLS) > 2 * map_tasks  # > sort_factor a task
    assert proven.counters.get(Counter.MERGED_RECORDS) > proven.counters.get(
        Counter.MAP_FINAL_OUTPUT_RECORDS
    )
    assert_same_run(proven, generic)


# ----------------------------------------------------------------------
# what is *not* proven
# ----------------------------------------------------------------------


class RekeyingCombiner(Combiner):
    """A sum, but emitted under another key."""

    def combine(self, key, values, emit):
        emit(Text(key.value.lower()), VIntWritable(sum(v.value for v in values)))


def logged(method):
    @functools.wraps(method)
    def wrapper(*args):
        return method(*args)

    return wrapper


class DecoratedCombiner(Combiner):
    @logged
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


def fn_sum(key, values):
    yield key, VIntWritable(sum(v.value for v in values))


def runner_for(combiner, value_cls=VIntWritable) -> CombinerRunner:
    return CombinerRunner(combiner, Text, value_cls, UserCodeCosts(), Counters())


@pytest.mark.parametrize(
    "combiner",
    [
        RekeyingCombiner(),
        DecoratedCombiner(),
        FnCombiner(fn_sum),
        HiddenCombiner(COMBINERS["sum", VIntWritable]()),
    ],
    ids=["rekeying", "decorated", "fn-adapter", "proxy"],
)
def test_unproven_combiners_take_the_generic_path(combiner):
    runner = runner_for(combiner)
    assert runner.fold is None
    # ... and still combine.
    three = [VIntWritable(n).to_bytes() for n in (1, 2, 3)]
    out = runner.combine_serialized(Text("K").to_bytes(), three)
    assert [VIntWritable.from_bytes(value).value for _, value in out] == [6]


def test_the_proof_is_for_the_declared_value_class():
    assert runner_for(COMBINERS["max", IntWritable](), IntWritable).fold == "max"
    # W in the source must be the class the job declares.
    assert runner_for(COMBINERS["max", IntWritable](), LongWritable).fold is None


def test_a_folded_singleton_passes_its_bytes_through():
    runner = runner_for(COMBINERS["sum", VIntWritable]())
    value = VIntWritable(-5).to_bytes()
    [(key, out)] = runner.combine_serialized(b"\x01k", [value])
    assert out is value
    assert runner.counters.as_dict() == {
        "combine_input_records": 1, "combine_output_records": 1,
    }


# ----------------------------------------------------------------------
# the one-pass fold over sorted runs, against the generic loop
# ----------------------------------------------------------------------

KEYS = [Text(f"k{index}").to_bytes() for index in range(6)]


def runs_of(groups, value) -> st.SearchStrategy[list]:
    """Key-sorted runs under some of the keys, each empty, of *groups*,
    or of one-value groups only (one *value* each)."""

    def run(group):
        return st.dictionaries(st.sampled_from(KEYS), group).map(
            lambda drawn: [(key, v) for key, values in sorted(drawn.items()) for v in values]
        )

    return st.lists(st.one_of(st.just([]), run(groups), run(value.map(lambda v: [v]))), max_size=4)


def combine_outcome(combiner, value_cls, runs):
    """What ``combine_runs`` returns and accounts for *runs*, or its error."""
    runner = CombinerRunner(combiner, Text, value_cls, USER_COSTS, Counters())
    collector = SimpleNamespace(
        combiner_runner=runner, cost_model=COSTS, instruments=SimpleNamespace(ledger=Ledger())
    )
    try:
        combined, tally = combine_runs(collector, runs, 0.3)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)
    return combined, tally, runner.counters.as_dict(), collector.instruments.ledger.as_dict()


def proven_and_generic_outcomes(agg, value_cls, runs):
    combiner = COMBINERS[agg, value_cls]()
    return (
        combine_outcome(combiner, value_cls, runs),
        combine_outcome(HiddenCombiner(combiner), value_cls, runs),
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), agg=st.sampled_from(sorted(AGGS)),
       value_cls=st.sampled_from([VIntWritable, IntWritable, LongWritable]))
def test_combine_runs_folds_like_the_generic_loop(data, agg, value_cls):
    """Valid values: the same runs, tally, counters and ledger (an
    ``IntWritable`` sum past 32 bits: the same error)."""
    runs = runs_of(st.lists(valid(value_cls), min_size=1, max_size=5), valid(value_cls))
    proven, generic = proven_and_generic_outcomes(agg, value_cls, data.draw(runs))
    assert proven == generic


@settings(max_examples=150, deadline=None)
@given(data=st.data(), agg=st.sampled_from(sorted(AGGS)),
       value_cls=st.sampled_from([VIntWritable, IntWritable, LongWritable]))
def test_a_malformed_value_fails_the_fold_like_the_generic_loop(data, agg, value_cls):
    """Malformed values only in groups of two or more (a one-value group
    is never decoded by the fold): the same ``SerdeError``, for the
    first bad value in run order."""
    value = st.one_of(valid(value_cls), malformed(value_cls))
    groups = st.one_of(
        st.lists(valid(value_cls), min_size=1, max_size=1),
        st.lists(value, min_size=2, max_size=5),
    )
    runs = runs_of(groups, valid(value_cls))
    proven, generic = proven_and_generic_outcomes(agg, value_cls, data.draw(runs))
    assert proven == generic


def test_a_malformed_value_raises_in_the_group_the_generic_loop_does():
    """Each bad ``IntWritable`` names its length, so the message tells
    which group raised: the first with a bad value, not a later one."""
    good = IntWritable(3).to_bytes()
    run = [(KEYS[0], good), (KEYS[0], good), (KEYS[1], good), (KEYS[2], good),
           (KEYS[2], b"\x00" * 5), (KEYS[3], b"\x00" * 7), (KEYS[3], good)]
    proven, generic = proven_and_generic_outcomes("sum", IntWritable, [[], run])
    assert proven == generic == (SerdeError, "IntWritable needs 4 bytes, got 5")


def test_a_malformed_singleton_passes_through_the_fold():
    """A one-value group's bytes are what ``combine()`` would emit, so
    the fold keeps them undecoded, malformed or not."""
    bad = b"\x81"
    two = [(KEYS[1], VIntWritable(300).to_bytes()), (KEYS[1], VIntWritable(-2).to_bytes())]
    [[(key, out), folded]] = proven_and_generic_outcomes(
        "sum", VIntWritable, [[(KEYS[0], bad)] + two]
    )[0][0]
    assert (key, out) == (KEYS[0], bad) and out is bad
    assert folded == (KEYS[1], VIntWritable(298).to_bytes())
