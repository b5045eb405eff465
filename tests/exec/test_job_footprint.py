"""What a finished job keeps: part-file bytes and final map outputs.

A reduce task's result holds its output as framed bytes (no writable
objects), so it pickles to little more than that output; a map task's
disk holds only its final output file once the spills are merged.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.config import Keys
from repro.engine.api import Reducer
from repro.engine.counters import Counter
from repro.engine.runner import LocalJobRunner
from repro.experiments.common import build_app
from repro.serde.composite import array_writable_type
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text

from ..conftest import make_wordcount_job


@pytest.mark.parametrize("app_name", ["distributedsort", "wordcount"])
def test_reduce_results_pickle_to_about_their_output_bytes(app_name):
    app = build_app(app_name, "baseline", scale=0.02)
    result = LocalJobRunner().run(app.job)
    pickled = sum(len(pickle.dumps(r)) for r in result.reduce_results)
    output_bytes = result.counters.get(Counter.REDUCE_OUTPUT_BYTES)
    assert output_bytes > 0
    assert pickled <= 1.5 * output_bytes + 4096 * app.job.num_reducers


@pytest.mark.parametrize("backend", ["serial", "cluster"])
@pytest.mark.parametrize("spill_buffer", [1 << 11, 1 << 20])
def test_map_tasks_keep_only_their_final_output(backend, spill_buffer, tiny_text):
    job = make_wordcount_job(
        tiny_text * 4,
        conf_overrides={
            Keys.SPILL_BUFFER_BYTES: spill_buffer,
            Keys.SORT_FACTOR: 3,  # many spills: intermediate merges too
            Keys.EXEC_BACKEND: backend,
            Keys.EXEC_WORKERS: 2,
        },
        combiner=False,
    )
    result = LocalJobRunner().run(job)
    spills = [m.counters.get(Counter.SPILLS) for m in result.map_results]
    assert max(spills) > 3 if spill_buffer < 4096 else max(spills) == 1
    for m in result.map_results:
        assert list(m.disk.list_files()) == [m.output_index.path]


VIntArray = array_writable_type(VIntWritable)


class TwoClassReducer(Reducer):
    """Emits a class pair that changes from group to group, and from
    pair to pair within a group — the generic loop's output must decode
    each pair as its own classes."""

    def setup(self):
        self.groups = 0

    def reduce(self, key, values, emit):
        counts = [v.value for v in values]
        self.groups += 1
        if self.groups % 3:
            emit(key, VIntWritable(sum(counts)))
        emit(Text(key.value.upper()), VIntArray([VIntWritable(c) for c in counts]))


@pytest.mark.parametrize("backend", ["serial", "cluster"])
def test_generic_reducer_emitting_two_classes_round_trips(backend, tiny_text, wordcount_truth):
    job = make_wordcount_job(
        tiny_text,
        conf_overrides={Keys.EXEC_BACKEND: backend, Keys.EXEC_WORKERS: 2},
        combiner=False,
    )
    job.reducer_factory = TwoClassReducer
    result = LocalJobRunner().run(job)
    pairs = result.output_pairs()

    truth = wordcount_truth(tiny_text)
    arrays = {k.value: [c.value for c in v] for k, v in pairs if type(v) is VIntArray}
    sums = {k.value: v.value for k, v in pairs if type(v) is VIntWritable}
    assert arrays == {word.upper(): [1] * count for word, count in truth.items()}
    assert sums.items() <= truth.items() and 0 < len(sums) < len(truth)
    assert len(pairs) == result.output_records == len(arrays) + len(sums)
    assert result.output_records == result.counters.get(Counter.REDUCE_OUTPUT_RECORDS)
    assert sum(len(k.to_bytes()) + len(v.to_bytes()) for k, v in pairs) == (
        result.counters.get(Counter.REDUCE_OUTPUT_BYTES)
    )

    # The digest reads the part files; it equals the digest of the pairs.
    digest = hashlib.sha256()
    for key, value in pairs:
        for blob in (key.to_bytes(), value.to_bytes()):
            digest.update(len(blob).to_bytes(4, "big"))
            digest.update(blob)
    assert result.output_digest() == digest.hexdigest()
