"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import fnmatch
import glob
import multiprocessing
import os
import shutil
import tempfile
import threading

import pytest

from repro.config import JobConf, Keys
from repro.engine.api import Combiner, Mapper, Reducer
from repro.engine.counters import Counter
from repro.engine.inputformat import TextInput
from repro.engine.job import JobSpec
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text


#: Suites whose tests start executors, daemons, pools or shuffle servers.
LEAK_CHECKED = tuple(
    f"tests/{suite}/" for suite in ("exec", "cluster", "faults")
)
#: Threads a finished job must not leave running: the master's accept
#: loop, daemon heartbeats, and shuffle-server accept loops.
LEAKY_THREADS = ("cluster-master-accept", "heartbeat-*", "shuffle-server*")
#: Temp trees the cluster backend spills into.
LEAKY_TREES = ("repro-cluster-*",)
#: The temp dir other processes share; the session's own root is below it.
SYSTEM_TEMP = tempfile.gettempdir()
#: Executor-level counters only the cluster backend emits; everything
#: else a cluster run counts must match the serial run exactly.
CLUSTER_ONLY = frozenset({
    Counter.WORKERS_LOST,
    Counter.DATA_LOCAL_MAPS,
    Counter.SPECULATIVE_LAUNCHES,
    Counter.SPECULATIVE_WINS,
    Counter.DFS_READ_FAILOVERS,
})


def comparable_counters(counters: dict[str, int]) -> dict[str, int]:
    """A ``Counters.as_dict()`` without the :data:`CLUSTER_ONLY` counters."""
    return {name: n for name, n in counters.items() if Counter(name) not in CLUSTER_ONLY}


def _temp_trees() -> set[str]:
    root = tempfile.gettempdir()
    return {path for pattern in LEAKY_TREES for path in glob.glob(os.path.join(root, pattern))}


@pytest.fixture(scope="session", autouse=True)
def session_temp_root():
    """Every temp file of this session, its child processes' included,
    goes under one private root, so ``_temp_trees`` sees only trees this
    session made — not a job another process runs beside the suite."""
    saved = tempfile.tempdir, os.environ.get("TMPDIR")
    root = tempfile.mkdtemp(prefix="repro-tests-")
    tempfile.tempdir = os.environ["TMPDIR"] = root
    yield root
    tempfile.tempdir = saved[0]
    if saved[1] is None:
        del os.environ["TMPDIR"]
    else:
        os.environ["TMPDIR"] = saved[1]
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(autouse=True)
def no_leaked_execution_resources(request):
    """After every test of the executing suites — clean and
    fault-injected alike — no job thread, child process or temp tree
    outlives the test that started it."""
    if not request.node.nodeid.startswith(LEAK_CHECKED):
        yield
        return
    threads_before = set(threading.enumerate())
    trees_before = _temp_trees()
    yield
    leaked = []
    for thread in set(threading.enumerate()) - threads_before:
        if any(fnmatch.fnmatch(thread.name, pattern) for pattern in LEAKY_THREADS):
            thread.join(timeout=2.0)  # shutdown was requested; let it land
            if thread.is_alive():
                leaked.append(f"thread {thread.name}")
    for child in multiprocessing.active_children():  # reaps the finished ones
        child.join(timeout=2.0)
        if child.is_alive():
            leaked.append(f"child process {child.name} (pid {child.pid})")
    leaked.extend(f"temp tree {path}" for path in sorted(_temp_trees() - trees_before))
    assert not leaked, f"leaked by {request.node.nodeid}: {leaked}"


class TokenMapper(Mapper):
    """Minimal word-count mapper used across engine tests."""

    def map(self, key, value, emit):
        for word in value.value.split():
            emit(Text(word), VIntWritable(1))


class SumReducer(Reducer):
    def reduce(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


class SumCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


def make_wordcount_job(
    data: bytes,
    conf_overrides: dict | None = None,
    num_splits: int = 2,
    combiner: bool = True,
    name: str = "wc-test",
) -> JobSpec:
    conf = JobConf({Keys.SPILL_BUFFER_BYTES: 4096, Keys.NUM_REDUCERS: 2})
    if conf_overrides:
        conf.update(conf_overrides)
    return JobSpec(
        name=name,
        input_format=TextInput(data, split_size=max(1, len(data) // num_splits)),
        mapper_factory=TokenMapper,
        reducer_factory=SumReducer,
        combiner_factory=SumCombiner if combiner else None,
        map_output_key_cls=Text,
        map_output_value_cls=VIntWritable,
        conf=conf,
    )


@pytest.fixture
def tiny_text() -> bytes:
    lines = []
    words = ["apple", "banana", "cherry", "date", "elder", "fig"]
    for i in range(120):
        # Zipf-ish repetition: early words appear far more often.
        line = " ".join(words[j % len(words)] for j in range(i % 7 + 1) for _ in range(1))
        lines.append(line + f" apple word{i % 11}")
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def wordcount_truth():
    def compute(data: bytes) -> dict[str, int]:
        counts: dict[str, int] = {}
        for line in data.decode().splitlines():
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
        return counts

    return compute
