"""Property tests for the per-partition spill buffer.

Two invariants carry the binary collector's byte-identity claim:

* a buffered record reads back exactly as appended, in arrival order
  rebuilt from the per-partition runs;
* the per-partition runs (bucket by partition, stable sort by key)
  hold exactly the order of a stable sort by ``(partition, key bytes)``
  — including insertion-order stability for equal keys.

Hypothesis drives both over adversarial keys: empty, sharing long
prefixes, differing only past the first 8 bytes, trailing NULs, and
arbitrary non-ASCII bytes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.binarybuffer import BinarySpillBuffer

# Keys that stress a byte-order sort: empty, shared prefixes longer than
# 8 bytes, trailing NULs, and raw non-ASCII bytes.
tricky_keys = st.one_of(
    st.binary(min_size=0, max_size=12),
    st.binary(min_size=0, max_size=3).map(lambda suffix: b"sameprefix" + suffix),
    st.binary(min_size=0, max_size=2).map(lambda head: head + b"\x00\x00"),
    st.sampled_from([b"", b"\x00", b"a", b"a\x00", b"a\x00\x00", "épée".encode()]),
)

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # partition
        tricky_keys,
        st.binary(min_size=0, max_size=6),  # value
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(recs=records)
def test_buffered_records_read_back_exactly(recs):
    buffer = BinarySpillBuffer(1 << 20)
    for partition, key, value in recs:
        buffer.append(partition, key, value)
    spill = buffer.drain()
    assert spill.record_count == len(recs)
    assert list(spill) == recs


@settings(max_examples=150, deadline=None)
@given(recs=records, exact=st.booleans())
def test_bucket_sort_matches_stable_sorted(recs, exact):
    """The per-partition runs equal a stable sort by (partition, key) —
    positionally, so equal keys keep arrival order; the comparison mode
    only changes the count."""
    buffer = BinarySpillBuffer(1 << 20)
    for partition, key, value in recs:
        buffer.append(partition, key, value)
    spill = buffer.drain()
    runs = spill.sorted_runs(4)
    stats = spill.sort_stats(exact_comparisons=exact)

    reference = sorted(recs, key=lambda record: (record[0], record[1]))
    assert [
        (partition, key, value) for partition, run in enumerate(runs) for key, value in run
    ] == reference
    assert stats.records == len(recs)
