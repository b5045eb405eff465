"""Differential tests for the proven reduce loops.

Where a reducer's source proves ``for v in values: emit(key, v)`` the
reduce task builds the output pairs straight from the merged bytes, and
where it proves ``emit(key, W(sum|min|max(v.value for v in values)))``
over an exact-int value class it folds the decoded ints without calling
``reduce()``.  Neither may be observable: the same reducer behind a
delegating proxy (which hides the source, as ``bench/tracing.py``'s
``_TracedReducer`` does) takes the generic loop and must produce the
same output, job and per-task counters and ledger, floats included.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.extras import IdentityReducer
from repro.config import JobConf, Keys
from repro.engine.api import FnReducer, HashPartitioner, Mapper, Reducer
from repro.engine.costmodel import DEFAULT_COST_MODEL, UserCodeCosts
from repro.engine.counters import Counters
from repro.engine.inputformat import TextInput
from repro.engine.instrumentation import Ledger, TaskInstruments
from repro.engine.job import JobSpec
from repro.engine.reducetask import ReduceTaskRunner, proven_reduce
from repro.engine.runner import LocalJobRunner
from repro.errors import JobFailedError, SerdeError, UserCodeError
from repro.io.merger import group_sorted
from repro.io.records import append_record
from repro.lint.proofs import reducer_proof
from repro.serde.numeric import FloatWritable, IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text
from tests.engine.test_secondary_sort import PrefixPartitioner, group_prefix
from tests.serde.test_int_values import malformed, valid


class NumberMapper(Mapper):
    """Input line ``<key> <n>`` -> ``(Text(key), W(n · scale))``."""

    def __init__(self, value_cls, scale):
        self.value_cls, self.scale = value_cls, scale

    def map(self, key, value, emit):
        if value.value:
            word, number = value.value.split()
            emit(Text(word), self.value_cls(int(number) * self.scale))


class PassThrough(Reducer):
    def reduce(self, key, values, emit):
        for v in values:
            emit(key, v)


# One literal template per (aggregate, value class): the matcher reads
# source, so these cannot be manufactured in a loop.
class SumVInt(Reducer):
    def reduce(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


class MinVInt(Reducer):
    def reduce(self, key, values, emit):
        emit(key, VIntWritable(min(v.value for v in values)))


class MaxVInt(Reducer):
    def reduce(self, key, values, emit):
        emit(key, VIntWritable(max(v.value for v in values)))


class SumInt(Reducer):
    def reduce(self, key, values, emit):
        emit(key, IntWritable(sum(v.value for v in values)))


class MinInt(Reducer):
    def reduce(self, key, values, emit):
        emit(key, IntWritable(min(v.value for v in values)))


class MaxInt(Reducer):
    def reduce(self, key, values, emit):
        emit(key, IntWritable(max(v.value for v in values)))


class SumLong(Reducer):
    def reduce(self, key, values, emit):
        emit(key, LongWritable(sum(v.value for v in values)))


class MinLong(Reducer):
    def reduce(self, key, values, emit):
        emit(key, LongWritable(min(v.value for v in values)))


class MaxLong(Reducer):
    def reduce(self, key, values, emit):
        emit(key, LongWritable(max(v.value for v in values)))


REDUCERS = {
    ("identity", VIntWritable): PassThrough,
    ("identity", IntWritable): IdentityReducer,
    ("identity", LongWritable): PassThrough,
    ("sum", VIntWritable): SumVInt, ("min", VIntWritable): MinVInt,
    ("max", VIntWritable): MaxVInt,
    ("sum", IntWritable): SumInt, ("min", IntWritable): MinInt, ("max", IntWritable): MaxInt,
    ("sum", LongWritable): SumLong, ("min", LongWritable): MinLong,
    ("max", LongWritable): MaxLong,
}


class HiddenReducer(Reducer):
    """Delegates to a reducer this class's source says nothing about."""

    def __init__(self, inner):
        self._inner = inner

    def reduce(self, key, values, emit):
        self._inner.reduce(key, values, emit)


#: Costs that are not small integers, so a change in the order of the
#: per-group float additions would show in the ledger.
COSTS = dataclasses.replace(DEFAULT_COST_MODEL, serialize_byte=0.1, output_byte=0.3)
USER_COSTS = UserCodeCosts(reduce_record=0.7)


def make_job(records, proof, value_cls, scale, reducers, grouped, shuffle) -> JobSpec:
    data = "".join(
        f"g{group}|k{sub} {number}\n" if grouped else f"k{group}.{sub} {number}\n"
        for group, sub, number in records
    ).encode() or b"\n"  # no records: one blank line, so every reduce run is empty
    return JobSpec(
        name="reduceproof",
        input_format=TextInput(data, split_size=len(data) // 3 + 1),
        mapper_factory=lambda: NumberMapper(value_cls, scale),
        reducer_factory=REDUCERS[proof, value_cls],
        map_output_key_cls=Text,
        map_output_value_cls=value_cls,
        partitioner=PrefixPartitioner() if grouped else HashPartitioner(),
        group_key_fn=group_prefix if grouped else None,
        cost_model=COSTS,
        user_costs=USER_COSTS,
        conf=JobConf({
            Keys.NUM_REDUCERS: reducers,
            Keys.SHUFFLE_MODE: shuffle,
            Keys.SPILL_BUFFER_BYTES: 1024,
            Keys.TASK_MAX_ATTEMPTS: 1,
        }),
    )


def run_or_error(job: JobSpec):
    try:
        return LocalJobRunner().run(job)
    except JobFailedError as failure:
        return failure.__cause__


def accounting(result, shuffle: str) -> list:
    def entry(counters, ledger):
        work = ledger.as_dict()
        if shuffle == "net":
            work.pop("shuffle", None)  # measured seconds, not modelled units
        return counters.as_dict(), work

    return [entry(result.counters, result.ledger)] + [
        entry(task.counters, task.ledger) for task in result.reduce_results
    ]


RECORD = st.tuples(
    st.integers(0, 5),  # group: few groups, so some partitions are empty
    st.integers(0, 3),
    st.integers(-11, 11),
)


@settings(max_examples=30, deadline=None)
@given(
    records=st.one_of(
        st.lists(RECORD, max_size=60),
        st.lists(RECORD, max_size=24, unique_by=lambda record: record[:2]),  # one-value groups
    ),
    proof=st.sampled_from(["identity", "sum", "min", "max"]),
    value_cls=st.sampled_from([VIntWritable, IntWritable, LongWritable]),
    scale=st.sampled_from([1, 1 << 27]),  # 2**27: IntWritable sums overflow
    reducers=st.integers(1, 4),
    grouped=st.booleans(),
    shuffle=st.sampled_from(["mem", "mem", "mem", "net"]),
)
def test_proven_reduce_is_unobservable(
    records, proof, value_cls, scale, reducers, grouped, shuffle
):
    proven_job = make_job(records, proof, value_cls, scale, reducers, grouped, shuffle)
    reducer_cls = proven_job.reducer_factory
    generic_job = dataclasses.replace(
        proven_job, reducer_factory=lambda: HiddenReducer(reducer_cls())
    )
    assert proven_reduce(proven_job.reducer_factory(), value_cls) is not None
    assert proven_reduce(generic_job.reducer_factory(), value_cls) is None

    proven = run_or_error(proven_job)
    generic = run_or_error(generic_job)

    if isinstance(generic, Exception):
        # Only an IntWritable sum can leave its range: W(total) fails as
        # the reduce() that would have built it, in the same words.
        assert (proof, value_cls, scale) == ("sum", IntWritable, 1 << 27)
        for error in (proven, generic):
            assert isinstance(error, UserCodeError) and error.stage == "reduce"
        assert proven.message == generic.message
        return

    assert proven.output_digest() == generic.output_digest()
    assert accounting(proven, shuffle) == accounting(generic, shuffle)


def test_an_overflowing_int_sum_fails_as_reduce_on_both_loops():
    records = [(0, 0, 11)] * 3
    job = make_job(records, "sum", IntWritable, 1 << 27, 1, False, "mem")
    hidden = dataclasses.replace(job, reducer_factory=lambda: HiddenReducer(SumInt()))
    errors = [run_or_error(job), run_or_error(hidden)]
    assert all(isinstance(e, UserCodeError) and e.stage == "reduce" for e in errors)
    assert errors[0].message == errors[1].message


# ----------------------------------------------------------------------
# what is *not* proven
# ----------------------------------------------------------------------


class CleanupIdentity(IdentityReducer):
    def cleanup(self, emit):
        emit(Text("end"), Text(""))


class SetupBase(Reducer):
    def setup(self):
        self.seen = 0

    def reduce(self, key, values, emit):
        pass


class IdentityUnderSetup(SetupBase):
    """Its own reduce() is the identity, but a superclass has setup()."""

    def reduce(self, key, values, emit):
        for v in values:
            emit(key, v)


def logged(method):
    @functools.wraps(method)
    def wrapper(*args):
        return method(*args)

    return wrapper


class DecoratedIdentity(Reducer):
    @logged
    def reduce(self, key, values, emit):
        for v in values:
            emit(key, v)


class CountingReducer(Reducer):
    def reduce(self, key, values, emit):
        emit(key, VIntWritable(sum(1 for _ in values)))


class FloatSum(Reducer):
    def reduce(self, key, values, emit):
        emit(key, FloatWritable(sum(v.value for v in values)))


class RekeyingIdentity(Reducer):
    def reduce(self, key, values, emit):
        for v in values:
            emit(Text("all"), v)


class RebindingIdentity(Reducer):
    """The class's reduce() is the identity; the instance's is not."""

    def __init__(self):
        self.reduce = lambda key, values, emit: None

    def reduce(self, key, values, emit):
        for v in values:
            emit(key, v)


@pytest.mark.parametrize(
    "reducer, value_cls",
    [
        (CleanupIdentity(), Text),
        (IdentityUnderSetup(), Text),
        (DecoratedIdentity(), Text),
        (CountingReducer(), VIntWritable),
        (FloatSum(), FloatWritable),
        (RekeyingIdentity(), Text),
        (RebindingIdentity(), Text),
        (FnReducer(lambda key, values: [(key, v) for v in values]), Text),
        (HiddenReducer(IdentityReducer()), Text),
    ],
    ids=[
        "cleanup-override", "superclass-setup", "decorated", "counting",
        "float-value", "rekeying", "instance-rebinds", "fn-adapter", "proxy",
    ],
)
def test_unproven_reducers_take_the_generic_loop(reducer, value_cls):
    assert proven_reduce(reducer, value_cls) is None


def test_the_fold_proof_names_the_wrapper_and_is_cached():
    reducer_proof.cache_clear()
    for _ in range(3):
        proof = reducer_proof(SumInt, IntWritable)
    assert (proof.agg, proof.wrapper) == ("sum", IntWritable)
    assert reducer_proof(IdentityReducer, Text).identity
    info = reducer_proof.cache_info()
    assert (info.misses, info.hits) == (2, 2)


# ----------------------------------------------------------------------
# the one-pass fold over the merged run, against the generic loop
# ----------------------------------------------------------------------

#: Valid Text keys, and keys that are not UTF-8 sorted between them.
BAD_KEY = b"k0\xff"
KEYS = sorted([Text(f"k{index}").to_bytes() for index in range(4)] + [BAD_KEY, b"k2\xfe"])


def loop_outcome(agg, value_cls, records, proven: bool):
    """The part file, counts and ledger of one loop over *records*, or
    its error."""
    job = make_job([], agg, value_cls, 1, 1, False, "mem")
    runner = ReduceTaskRunner(job, 0, [], "r", TaskInstruments(Ledger()), Counters())
    part = bytearray()

    def emit(key, value):
        append_record(part, key.to_bytes(), value.to_bytes())

    try:
        if proven:
            proof = reducer_proof(REDUCERS[agg, value_cls], value_cls)
            counts = runner._fold(records, part, proof, Text.from_bytes, value_cls)[:2]
        else:
            reduce = REDUCERS[agg, value_cls]().reduce
            counts = runner._call_reduce(
                group_sorted(records), reduce, emit, Text.from_bytes, value_cls.from_bytes
            )
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)
    return bytes(part), counts, runner.instruments.ledger.as_dict()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    agg=st.sampled_from(["sum", "min", "max"]),
    value_cls=st.sampled_from([VIntWritable, IntWritable, LongWritable]),
)
def test_the_fold_loop_is_the_generic_loop(data, agg, value_cls):
    """Output, counts and ledger, or the error — a malformed value
    before its group's malformed key, the first bad group first.  The
    draws include the empty run and runs of one-value groups only."""
    values = st.one_of(valid(value_cls), valid(value_cls), malformed(value_cls))
    groups = st.one_of(
        st.dictionaries(st.sampled_from(KEYS), st.lists(values, min_size=1, max_size=4)),
        st.dictionaries(st.sampled_from(KEYS), st.lists(values, min_size=1, max_size=1)),
    )
    records = [(key, value) for key, group in sorted(data.draw(groups).items()) for value in group]
    proven = loop_outcome(agg, value_cls, records, proven=True)
    assert proven == loop_outcome(agg, value_cls, records, proven=False)


@pytest.mark.parametrize("value_cls", [VIntWritable, IntWritable])
def test_the_fold_loop_decodes_values_before_the_key(value_cls):
    """Within a group a bad value raises before a bad key, and a bad key
    before the next group's first value is decoded."""
    good, bad = value_cls(4).to_bytes(), b"\x81\x81\x81"
    with pytest.raises(SerdeError) as value_error:
        value_cls.from_bytes(bad)
    with pytest.raises(SerdeError) as key_error:
        Text.from_bytes(BAD_KEY)
    k0, k1 = Text("k0").to_bytes(), Text("k1").to_bytes()
    for group in ([bad], [good, bad], [bad, good]):
        records = [(k0, good)] + [(BAD_KEY, value) for value in group]
        assert loop_outcome("sum", value_cls, records, proven=True) == (
            SerdeError, str(value_error.value)
        )
    for group in ([good], [good, good]):
        records = [(BAD_KEY, value) for value in group] + [(k1, bad)]
        assert loop_outcome("max", value_cls, records, proven=True) == (
            SerdeError, str(key_error.value)
        )
