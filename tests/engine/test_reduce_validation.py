"""Reduce-side validation of the merged bytes.

The proven reduce loops (identity pass-through and int fold) never call
``reduce()``, yet each still decodes every key and value it outputs
with the declared classes' ``from_bytes``, so bytes the declared class
cannot read fail the job exactly as the generic loop does.  A mapper
that emits ``Text`` values while declaring ``VIntWritable`` (or a key
that is not UTF-8 under a declared ``Text``) must fail every loop with
the same ``SerdeError``, raised through ``JobFailedError``.
"""

from __future__ import annotations

import pytest

from repro.config import JobConf, Keys
from repro.engine.api import Mapper, Reducer
from repro.engine.inputformat import TextInput
from repro.engine.job import JobSpec
from repro.engine.reducetask import proven_reduce
from repro.engine.runner import LocalJobRunner
from repro.errors import JobFailedError, SerdeError
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from repro.serde.writable import Writable


class Identity(Reducer):
    def reduce(self, key, values, emit):
        for v in values:
            emit(key, v)


class Sum(Reducer):
    def reduce(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


class GenericIdentity(Identity):
    """The same ``reduce()``, but a ``setup`` hides the proof: the
    generic loop, which calls ``from_bytes`` before ``reduce()``."""

    def setup(self):
        pass


class TextValueMapper(Mapper):
    """Declares ``VIntWritable`` values but emits each word as ``Text``."""

    def map(self, key, value, emit):
        for word in value.value.split():
            emit(Text(word), Text(word))


class RawBytes(Writable):
    """Serializes to whatever bytes it wraps: here, not UTF-8."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def to_bytes(self) -> bytes:
        return self.data

    @classmethod
    def from_bytes(cls, data: bytes) -> "RawBytes":
        return cls(data)


class BadKeyMapper(Mapper):
    """Declares ``Text`` keys but emits a key that is not UTF-8."""

    def map(self, key, value, emit):
        for word in value.value.split():
            emit(RawBytes(b"\xff" + word.encode()), VIntWritable(1))


def make_job(mapper, reducer) -> JobSpec:
    data = b"alpha beta gamma\nbeta gamma\ngamma delta\n"
    return JobSpec(
        name="reduce-validation",
        input_format=TextInput(data, split_size=len(data) // 2 + 1),
        mapper_factory=mapper,
        reducer_factory=reducer,
        map_output_key_cls=Text,
        map_output_value_cls=VIntWritable,
        conf=JobConf({Keys.NUM_REDUCERS: 2, Keys.TASK_MAX_ATTEMPTS: 1}),
    )


@pytest.mark.parametrize(
    "reducer, proof",
    [(Identity, "identity"), (Sum, "sum"), (GenericIdentity, None)],
)
@pytest.mark.parametrize(
    "mapper, message",
    [(TextValueMapper, "trailing bytes after vint"), (BadKeyMapper, "invalid UTF-8")],
)
def test_every_reduce_loop_rejects_bytes_the_declared_class_cannot_read(
    reducer, proof, mapper, message
):
    found = proven_reduce(reducer(), VIntWritable)
    assert (found and found.agg) == proof
    with pytest.raises(JobFailedError) as failure:
        LocalJobRunner().run(make_job(mapper, reducer))
    cause = failure.value.__cause__
    assert isinstance(cause, SerdeError)
    assert message in str(cause)
    assert ".r" in str(failure.value)  # a reduce task failed, not a map task
