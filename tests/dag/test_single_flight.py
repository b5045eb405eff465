"""The dataflow cache's single-flight table: in-flight execution dedup.

Concurrent executions of the same stage key against the same cache
elect one leader; waiters block, then read the leader's committed
entry.  The primitive is tested in-process first, then end to end with
two :class:`~repro.dag.PipelineRunner` s sharing one disk cache.
"""

from __future__ import annotations

import threading
import time

from repro.config import JobConf, Keys
from repro.dag.cache import MemoryStageCache, SingleFlight, single_flight_for
from repro.engine.counters import Counter


def test_single_flight_one_leader():
    flight = SingleFlight()
    assert flight.begin("k") is True
    assert flight.in_flight() == 1

    results: list[bool] = []
    waiter = threading.Thread(target=lambda: results.append(flight.begin("k")))
    waiter.start()
    time.sleep(0.05)
    assert waiter.is_alive()  # blocked on the leader
    flight.done("k")
    waiter.join(timeout=5.0)
    assert results == [False]
    assert flight.in_flight() == 0


def test_single_flight_failed_leader_promotes_waiter():
    flight = SingleFlight()
    assert flight.begin("k")
    waiter_outcome: list[bool] = []

    def wait_then_retry():
        first = flight.begin("k")      # blocks; False once leader finishes
        second = flight.begin("k")     # cache still empty -> new leader
        waiter_outcome.extend([first, second])
        flight.done("k")

    thread = threading.Thread(target=wait_then_retry)
    thread.start()
    time.sleep(0.05)
    flight.done("k")  # leader "failed": committed nothing
    thread.join(timeout=5.0)
    assert waiter_outcome == [False, True]


def test_single_flight_independent_keys():
    flight = SingleFlight()
    assert flight.begin("a") and flight.begin("b")
    flight.done("a")
    flight.done("b")
    assert flight.in_flight() == 0


def test_single_flight_for_memory_cache_is_per_instance():
    one, two = MemoryStageCache(), MemoryStageCache()
    assert single_flight_for(one) is single_flight_for(one)
    assert single_flight_for(one) is not single_flight_for(two)


def test_single_flight_for_disk_cache_shared_per_directory(tmp_path):
    from repro.dag.cache import DiskStageCache

    a = DiskStageCache(str(tmp_path / "cache"))
    b = DiskStageCache(str(tmp_path / "cache"))
    other = DiskStageCache(str(tmp_path / "elsewhere"))
    assert single_flight_for(a) is single_flight_for(b)
    assert single_flight_for(a) is not single_flight_for(other)


def test_concurrent_pipeline_runners_single_flight(tmp_path):
    """Two PipelineRunners sharing a disk cache run the same pipeline
    concurrently; the single-flight table makes one compute each stage
    while the other blocks, then reads the cache — total stage
    computations across both runners equal one pipeline's worth."""
    from repro.apps.pipelines import build_pipeline
    from repro.dag import PipelineRunner

    conf = JobConf({Keys.PIPELINE_CACHE_DIR: str(tmp_path / "stage-cache")})
    barrier = threading.Barrier(2)
    results = {}

    def run(tag: str) -> None:
        pipeline = build_pipeline("textindex", scale=0.01)
        runner = PipelineRunner(conf=conf)
        barrier.wait()
        results[tag] = runner.run(pipeline)

    threads = [threading.Thread(target=run, args=(t,)) for t in ("x", "y")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)

    x, y = results["x"], results["y"]
    assert x.ok and y.ok
    digests = [tuple(s.output_digest for s in r.stages) for r in (x, y)]
    assert digests[0] == digests[1]
    misses = sum(
        r.counters.as_dict().get(Counter.PIPELINE_CACHE_MISSES.value, 0)
        for r in (x, y)
    )
    hits = sum(
        r.counters.as_dict().get(Counter.PIPELINE_CACHE_HITS.value, 0)
        for r in (x, y)
    )
    assert misses == 3  # one compute per stage, across BOTH runners
    assert hits == 3    # the blocked runner read every stage from cache
