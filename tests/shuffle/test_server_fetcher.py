"""Server + fetcher round trips over real localhost sockets."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.config import JobConf, Keys
from repro.engine.costmodel import DEFAULT_COST_MODEL
from repro.engine.counters import Counters
from repro.engine.instrumentation import Ledger, TaskInstruments
from repro.engine.shuffle import ShuffleService
from repro.errors import ShuffleError
from repro.exec.diskio import FileDisk
from repro.io.blockdisk import LocalDisk
from repro.io.spillfile import segment_bytes, write_spill
from repro.shuffle.fetcher import (
    FetcherPool,
    FetchPlanEntry,
    RetryPolicy,
    fetch_segment,
)
from repro.shuffle.server import ShuffleServer

pytestmark = pytest.mark.network

FAST_RETRIES = RetryPolicy(
    max_attempts=3, backoff_base_seconds=0.005, backoff_max_seconds=0.02,
    timeout_seconds=5.0,
)

PARTITIONS = [
    [(b"alpha", b"1"), (b"beta", b"2")],
    [(b"gamma", b"3")],
    [],  # empty partitions must still serve cleanly
]


@pytest.fixture
def server():
    srv = ShuffleServer("node-a").start()
    yield srv
    srv.stop()


def test_fetch_matches_local_read(server):
    disk = LocalDisk("m0.disk")
    index = write_spill(disk, "m0.out", PARTITIONS)
    server.register("job.m0000", index, disk)

    for partition in range(len(PARTITIONS)):
        entry = FetchPlanEntry(server.address, "job.m0000", partition)
        result = fetch_segment(entry, FAST_RETRIES)
        assert result.payload == segment_bytes(disk, index, partition)
        assert result.stored_length == index.entry(partition).length
        assert result.records == index.entry(partition).records
        assert result.attempts == 1
        assert result.seconds > 0

    # A handler counts a request after the bytes are out, so the client
    # can get here first; stop() joins the handlers.
    server.stop()
    stats = server.snapshot()
    assert stats.requests_served == len(PARTITIONS)
    assert stats.bytes_served == index.total_bytes


def test_unknown_task_exhausts_retries_cleanly(server):
    entry = FetchPlanEntry(server.address, "job.m9999", 0)
    with pytest.raises(ShuffleError, match="3 attempts"):
        fetch_segment(entry, FAST_RETRIES)


def test_stop_of_an_idle_server_does_not_wait_out_the_accept_poll():
    # stop() wakes the accept loop itself; before, an idle server's stop
    # sat out the loop's 0.1 s poll (2-7 % of a small net-shuffle job).
    elapsed = []
    port = None
    for _ in range(5):
        srv = ShuffleServer("idle", port=port or 0).start()
        port = srv.address[1]  # every restart rebinds the port just released
        time.sleep(0.02)  # idle: the loop is inside accept(), early in its poll
        start = time.perf_counter()
        srv.stop()
        elapsed.append(time.perf_counter() - start)
    assert sorted(elapsed)[2] < 0.05


def test_dead_port_is_connection_refused_not_hang():
    # Grab a free port, then close it: nothing listens there.
    probe = ShuffleServer("ghost").start()
    address = probe.address
    probe.stop()
    entry = FetchPlanEntry(address, "job.m0000", 0)
    with pytest.raises(ShuffleError, match="failed after 3 attempts"):
        fetch_segment(entry, FAST_RETRIES)


def test_wire_fetch_from_file_disk(server, tmp_path):
    # A cluster worker daemon registers its FileDisk-backed map outputs
    # with the server it runs; reducers fetch them over the wire.
    disk = FileDisk(str(tmp_path / "worker0"), "m1.disk")
    index = write_spill(disk, "m1.out", PARTITIONS)
    server.register("job.m0001", index, disk)
    assert server.registered_tasks() == ["job.m0001"]

    entry = FetchPlanEntry(server.address, "job.m0001", 0)
    result = fetch_segment(entry, FAST_RETRIES)
    assert result.payload == segment_bytes(disk, index, 0)


def test_fetcher_pool_preserves_plan_order(server):
    indexes = {}
    for m in range(6):
        disk = LocalDisk(f"m{m}.disk")
        rows = [[(f"k{m:02d}".encode(), str(m).encode())]]
        indexes[m] = (disk, write_spill(disk, f"m{m}.out", rows))
        server.register(f"job.m{m:04d}", indexes[m][1], disk)

    plan = [FetchPlanEntry(server.address, f"job.m{m:04d}", 0) for m in range(6)]
    pool = FetcherPool(plan, fetchers=3, policy=FAST_RETRIES).start()
    try:
        got = [pool.next_result() for _ in range(len(plan))]
    finally:
        pool.close()
    assert [r.entry.map_task_id for r in got] == [e.map_task_id for e in plan]
    for m, result in enumerate(got):
        assert result.payload == segment_bytes(*indexes[m], 0)


def test_fetcher_pool_rejects_overconsumption(server):
    pool = FetcherPool([], fetchers=1, policy=FAST_RETRIES).start()
    try:
        with pytest.raises(ShuffleError, match="exhausted"):
            pool.next_result()
    finally:
        pool.close()


def test_handler_threads_are_pruned_as_they_finish(server):
    """Regression: the accept loop prunes finished handler threads on
    every accepted connection, so a long-lived server's ``_handlers``
    list stays bounded instead of growing by one entry per fetch."""
    disk = LocalDisk("m0.disk")
    index = write_spill(disk, "m0.out", PARTITIONS)
    server.register("job.m0000", index, disk)

    entry = FetchPlanEntry(server.address, "job.m0000", 0)
    fetches = 60
    for _ in range(fetches):
        fetch_segment(entry, FAST_RETRIES)
    # Handlers for completed fetches must have been dropped; only the
    # tail of in-flight (or just-finished, not-yet-pruned) ones remain.
    assert len(server._handlers) < fetches / 2
    # The handler thread bumps its stats *after* replying, so the last
    # fetch's count can trail the client's return briefly.
    deadline = time.monotonic() + 5.0
    while server.snapshot().requests_served < fetches and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.snapshot().requests_served == fetches


def test_shuffle_service_closes_its_pool_on_every_exit(server, monkeypatch):
    """``fetch_and_merge`` shuts its fetcher pool down after the last
    segment and when a fetch fails, so no fetcher thread outlives it."""
    disk = LocalDisk("m0.disk")
    index = write_spill(disk, "m0.out", PARTITIONS)
    server.register("job.m0000", index, disk)
    closed = []
    close = FetcherPool.close
    monkeypatch.setattr(FetcherPool, "close", lambda pool: closed.append(close(pool)))
    conf = JobConf({Keys.SHUFFLE_FETCH_ATTEMPTS: 1})

    def merge(*task_ids: str):
        outputs = [
            SimpleNamespace(task_id=task_id, serve_address=server.address,
                            output_index=index, disk=disk, host="node-a")
            for task_id in task_ids
        ]
        service = ShuffleService(DEFAULT_COST_MODEL, TaskInstruments(Ledger()), Counters())
        return service.fetch_and_merge(outputs, 0, FetcherPool.for_partition(outputs, 0, conf))

    assert merge("job.m0000", "job.m0000") == sorted(PARTITIONS[0] * 2)
    assert len(closed) == 1
    with pytest.raises(ShuffleError, match="failed after 1 attempts"):
        merge("job.m0000", "job.m9999")  # never registered
    assert len(closed) == 2
