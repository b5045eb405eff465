"""End-to-end: the cluster backend reproduces the serial backend's
output byte for byte, on the paper's apps, over the real network
shuffle, with real worker daemons and a staged DFS underneath."""

from __future__ import annotations

import threading

import pytest

from repro.config import Keys
from repro.engine.costmodel import DEFAULT_COST_MODEL
from repro.engine.counters import Counter
from repro.engine.instrumentation import Op
from repro.engine.runner import JobResult, LocalJobRunner
from repro.exec import create_executor
from repro.experiments.common import build_app

from ..conftest import comparable_counters

PAPER_APPS = ("wordcount", "invertedindex", "wordpostag")


def run_backend(app_name: str, backend: str, shuffle: str = "mem") -> JobResult:
    app = build_app(
        app_name,
        "baseline",
        scale=0.02,
        num_splits=3,
        extra_conf={
            Keys.EXEC_BACKEND: backend,
            Keys.EXEC_WORKERS: 3,
            Keys.SHUFFLE_MODE: shuffle,
            Keys.SPILL_BUFFER_BYTES: 16 * 1024,
        },
    )
    return LocalJobRunner().run(app.job)


def serialized_output(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


@pytest.mark.cluster
@pytest.mark.parametrize("app_name", PAPER_APPS)
def test_cluster_matches_serial_over_net_shuffle(app_name: str) -> None:
    serial = run_backend(app_name, "serial", shuffle="net")
    assert serial.output_pairs(), "empty reference run proves nothing"

    result = run_backend(app_name, "cluster", shuffle="net")
    assert serialized_output(result) == serialized_output(serial)
    assert comparable_counters(result.counters.as_dict()) == serial.counters.as_dict()
    work, reference = dict(result.ledger.work), dict(serial.ledger.work)
    # The daemons are distinct hosts (a serial run is one): SHUFFLE also
    # charges the modelled network cost of the segments placement sent
    # across them, as in mem mode, and nothing else differs.
    remote = sum(task.remote_shuffle_bytes for task in result.reduce_results)
    assert work.pop(Op.SHUFFLE) - reference.pop(Op.SHUFFLE) == pytest.approx(
        DEFAULT_COST_MODEL.net_byte * remote
    )
    assert work == pytest.approx(reference)
    # Per-task record/byte accounting matches task by task too.
    for mine, ref in zip(result.map_results, serial.map_results):
        assert mine.task_id == ref.task_id
        assert mine.counters.values == ref.counters.values
    # Every daemon ran its own shuffle server and some were fetched from.
    assert len(result.shuffle_hosts) == 3
    assert sum(s.requests_served for s in result.shuffle_hosts) > 0


@pytest.mark.cluster
def test_cluster_matches_serial_in_mem_mode() -> None:
    """Mem-mode cluster runs read spill files straight from the shared
    temp tree — no shuffle servers, same bytes."""
    serial = run_backend("wordcount", "serial")
    result = run_backend("wordcount", "cluster")
    assert serialized_output(result) == serialized_output(serial)
    assert comparable_counters(result.counters.as_dict()) == serial.counters.as_dict()
    assert result.shuffle_hosts == []


@pytest.mark.cluster
def test_placement_is_data_local() -> None:
    """With replication covering the cluster, every first-attempt map
    should land on a host holding its split's block."""
    result = run_backend("wordcount", "cluster")
    assert result.counters.get(Counter.DATA_LOCAL_MAPS) == len(result.map_results)


def test_create_executor_wires_the_cluster_backend() -> None:
    executor = create_executor("cluster", workers=2)
    assert type(executor).__name__ == "ClusterExecutor"
    assert executor.name == "cluster"
    assert executor.workers == 2


@pytest.mark.cluster
def test_the_master_leaves_no_accept_thread_behind() -> None:
    """A thread blocked in accept() outlives the closed listener, and it
    holds its master — the job's map outputs, staged DFS and all — so a
    process that runs job after job would grow by a job's data each time."""
    run_backend("wordcount", "cluster")
    for thread in threading.enumerate():
        if thread.name == "cluster-master-accept":
            thread.join(timeout=2.0)
            assert not thread.is_alive()
