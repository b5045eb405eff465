"""Tests for the hash partitioner."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import Keys
from repro.engine.api import HashPartitioner
from repro.engine.job import JobSpec
from repro.engine.runner import JobResult, LocalJobRunner
from repro.experiments.common import build_app


class TestHashPartitioner:
    def test_range(self):
        p = HashPartitioner()
        for key in (b"", b"a", b"hello", bytes(100)):
            for n in (1, 2, 7, 100):
                assert 0 <= p.partition(key, n) < n

    def test_deterministic(self):
        p = HashPartitioner()
        assert p.partition(b"key", 13) == HashPartitioner().partition(b"key", 13)

    def test_single_partition(self):
        assert HashPartitioner().partition(b"anything", 1) == 0

    @pytest.mark.parametrize(
        "key, digest",
        [
            (b"", 0xCBF29CE484222325),
            (b"a", 0xAF63DC4C8601EC8C),
            (b"foobar", 0x85944171F73967E8),
        ],
    )
    def test_fnv1a_64_known_answers(self, key, digest):
        # The published FNV-1a-64 vectors: with 2**64 partitions the
        # partition is the hash itself.
        assert HashPartitioner().partition(key, 1 << 64) == digest

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner().partition(b"k", 0)

    def test_distribution_roughly_uniform(self):
        p = HashPartitioner()
        n = 8
        buckets = [0] * n
        for i in range(4000):
            buckets[p.partition(f"key-{i}".encode(), n)] += 1
        expected = 4000 / n
        for count in buckets:
            assert 0.6 * expected < count < 1.4 * expected


@given(st.binary(max_size=64), st.integers(min_value=1, max_value=64))
def test_partition_in_range_property(key, n):
    assert 0 <= HashPartitioner().partition(key, n) < n



def wordcount_combined(backend: str = "serial") -> JobSpec:
    conf = {Keys.EXEC_BACKEND: backend, Keys.EXEC_WORKERS: 2}
    return build_app("wordcount", "combined", scale=0.02, num_splits=4, extra_conf=conf).job


def hashed_keys(monkeypatch, job: JobSpec) -> tuple[list[bytes], JobResult]:
    """The keys ``HashPartitioner.partition`` hashed while *job* ran."""
    keys: list[bytes] = []
    partition = HashPartitioner.partition

    def spy(self, key_bytes, num_partitions):
        keys.append(key_bytes)
        return partition(self, key_bytes, num_partitions)

    with monkeypatch.context() as patch:
        patch.setattr(HashPartitioner, "partition", spy)
        result = LocalJobRunner().run(job)
    return keys, result


class TestPartitionMemoScope:
    """The stock partitioner's memo lives in the per-node state of one
    run of a job: on ``serial`` (one node) each distinct key is hashed
    once per job, not once per map task, and never carried into the next
    run; each cluster daemon is a node with its own memo."""

    def test_serial_hashes_each_distinct_key_once_a_run(self, monkeypatch):
        job = wordcount_combined()
        for _ in range(2):  # the second run of the same JobSpec starts cold
            keys, result = hashed_keys(monkeypatch, job)
            # Every word reaches the spill path (a frequent one at the
            # drain), so each output key is hashed exactly once.
            assert len(keys) == len(set(keys)) == result.output_records

    @pytest.mark.parametrize("backend", ("cluster",))
    def test_parallel_backends_give_the_serial_digest(self, backend):
        digests = {
            name: LocalJobRunner().run(wordcount_combined(name)).output_digest()
            for name in (backend, "serial")
        }
        assert digests[backend] == digests["serial"]
