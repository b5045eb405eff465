"""Whole-job property tests: for arbitrary texts and configurations, the
engine must compute exactly the word counts a naive loop computes.

This is the strongest correctness statement in the suite: it quantifies
over input content, split geometry, buffer size, reducer count, both
optimizations, and compression at once.
"""

from collections import Counter as PyCounter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Keys
from repro.engine.runner import LocalJobRunner
from tests.conftest import make_wordcount_job

words = st.text(alphabet="abcdef", min_size=1, max_size=6)
lines = st.lists(words, min_size=0, max_size=12).map(" ".join)


@settings(max_examples=25, deadline=None)
@given(
    text_lines=st.lists(lines, min_size=1, max_size=40),
    num_splits=st.integers(min_value=1, max_value=5),
    buffer_bytes=st.sampled_from([512, 2048, 16384]),
    reducers=st.integers(min_value=1, max_value=4),
    freqbuf=st.booleans(),
    spillmatcher=st.booleans(),
    compression=st.sampled_from(["identity", "zlib"]),
)
def test_wordcount_always_exact(
    text_lines, num_splits, buffer_bytes, reducers, freqbuf, spillmatcher, compression,
):
    data = ("\n".join(text_lines) + "\n").encode()
    truth = PyCounter(w for line in text_lines for w in line.split())
    if not truth:
        return  # no tokens: engine rejects empty inputs elsewhere

    conf = {
        Keys.SPILL_BUFFER_BYTES: buffer_bytes,
        Keys.NUM_REDUCERS: reducers,
        Keys.SPILL_COMPRESSION: compression,
        Keys.SPILLMATCHER_ENABLED: spillmatcher,
    }
    if freqbuf:
        conf.update({
            Keys.FREQBUF_ENABLED: True,
            Keys.FREQBUF_K: 4,
            Keys.FREQBUF_SAMPLE_FRACTION: 0.25,
        })
    job = make_wordcount_job(data, conf, num_splits=num_splits)
    result = LocalJobRunner().run(job)
    out = {k.value: v.value for k, v in result.output_pairs()}
    assert out == dict(truth)


@settings(max_examples=15, deadline=None)
@given(
    text_lines=st.lists(lines, min_size=2, max_size=30),
    splits_a=st.integers(min_value=1, max_value=4),
    splits_b=st.integers(min_value=1, max_value=4),
)
def test_split_geometry_never_changes_output(text_lines, splits_a, splits_b):
    data = ("\n".join(text_lines) + "\n").encode()
    if not any(line.split() for line in text_lines):
        return

    def run(splits: int):
        job = make_wordcount_job(data, num_splits=splits)
        result = LocalJobRunner().run(job)
        return sorted((k.value, v.value) for k, v in result.output_pairs())

    assert run(splits_a) == run(splits_b)
