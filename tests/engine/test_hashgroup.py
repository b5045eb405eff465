"""Tests for the hash-grouping collector (the §VII extension)."""

import pytest

from repro.config import Keys
from repro.engine.api import Combiner
from repro.engine.counters import Counter
from repro.engine.instrumentation import Op
from repro.engine.runner import LocalJobRunner
from repro.errors import ConfigError
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from tests.conftest import make_wordcount_job


def run(data: bytes, extra=None, **kwargs):
    overrides = {Keys.GROUPING: "hash"}
    if extra:
        overrides.update(extra)
    job = make_wordcount_job(data, overrides, **kwargs)
    return LocalJobRunner().run(job)


class TestCorrectness:
    def test_matches_truth(self, tiny_text, wordcount_truth):
        result = run(tiny_text)
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert out == wordcount_truth(tiny_text)

    def test_matches_sort_grouping(self, tiny_text):
        sort_job = make_wordcount_job(tiny_text)
        sort_out = LocalJobRunner().run(sort_job).output_pairs()
        hash_out = run(tiny_text).output_pairs()
        normalize = lambda pairs: sorted((k.to_bytes(), v.to_bytes()) for k, v in pairs)
        assert normalize(hash_out) == normalize(sort_out)

    def test_output_stays_sorted_per_partition(self, tiny_text):
        result = run(tiny_text)
        for reduce_result in result.reduce_results:
            keys = [k.value for k, _ in reduce_result.output]
            assert keys == sorted(keys)

    def test_without_combiner(self, tiny_text, wordcount_truth):
        result = run(tiny_text, combiner=False)
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert out == wordcount_truth(tiny_text)

    def test_with_compression_and_optimizations(self, tiny_text, wordcount_truth):
        result = run(tiny_text, extra={
            Keys.SPILL_COMPRESSION: "zlib",
            Keys.SPILLMATCHER_ENABLED: True,
        })
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert out == wordcount_truth(tiny_text)

    @pytest.mark.parametrize("buffer_bytes", (713, 902))
    def test_rekeying_combiner_counted_once(self, buffer_bytes):
        """A combiner output under another key is re-collected; when that
        re-collect fills the table and spills it, the group it came from
        must already hold its combined values, or the spill writes the
        raw values and the combined ones are counted again (w0 came out
        132 at 713 bytes and 162 at 902)."""

        class RekeyingSumCombiner(Combiner):
            def combine(self, key, values, emit):
                emit(key, VIntWritable(sum(v.value for v in values)))
                emit(Text(key.value + "#"), VIntWritable(0))

        tokens = [f"w{i % 40}" for i in range(4000)]
        lines = (" ".join(tokens[i:i + 10]) for i in range(0, len(tokens), 10))
        data = ("\n".join(lines) + "\n").encode()
        job = make_wordcount_job(
            data, {Keys.GROUPING: "hash", Keys.SPILL_BUFFER_BYTES: buffer_bytes}
        )
        job.combiner_factory = RekeyingSumCombiner
        result = LocalJobRunner().run(job)
        assert result.counters.get(Counter.SPILLS) > 1
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert {k: v for k, v in out.items() if "#" not in k} == {
            f"w{i}": 100 for i in range(40)
        }

    def test_tiny_budget_forces_spills(self, tiny_text, wordcount_truth):
        result = run(tiny_text, extra={Keys.SPILL_BUFFER_BYTES: 512})
        assert result.counters.get(Counter.SPILLS) > 1
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert out == wordcount_truth(tiny_text)


class TestEfficiency:
    def test_slashes_sort_work(self, tiny_text):
        sort_result = LocalJobRunner().run(make_wordcount_job(tiny_text))
        hash_result = run(tiny_text)
        # Hashing replaces the O(n log n) raw sort with an O(u log u)
        # sort of unique aggregates — Section II-A's observation.
        assert hash_result.ledger.get(Op.SORT) < 0.2 * sort_result.ledger.get(Op.SORT)

    def test_fewer_spilled_records(self, tiny_text):
        sort_result = LocalJobRunner().run(make_wordcount_job(tiny_text))
        hash_result = run(tiny_text)
        assert hash_result.counters.get(Counter.SPILLED_RECORDS) <= sort_result.counters.get(
            Counter.SPILLED_RECORDS
        )

    def test_charges_hash_op(self, tiny_text):
        result = run(tiny_text)
        assert result.ledger.get(Op.HASHBUF) > 0


class TestConfig:
    def test_unknown_grouping_rejected(self, tiny_text):
        job = make_wordcount_job(tiny_text, {Keys.GROUPING: "quantum"})
        with pytest.raises(ConfigError, match="repro.engine.grouping='quantum'"):
            LocalJobRunner().run(job)
