"""Backend equivalence: serial and cluster runs are identical.

The executor contract is that *where* tasks run never changes *what*
they compute, and every transport follows one per-node rule: the map
tasks of one node share one per-node state (the frozen frequent-key set
and the partition memo).  The serial backend is one node and so is a
one-daemon cluster, so for every paper application, with and without
frequency-buffering, that cluster reproduces the serial backend's
outputs, counters and merged work ledger exactly (the cluster
backend's own executor counters aside).  With more daemons, placement
decides which tasks share a node: the output is unchanged, and each
daemon profiles once, on the first map task it runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import Keys
from repro.engine.counters import Counter
from repro.engine.runner import JobResult, LocalJobRunner
from repro.errors import ExecBackendError, JobFailedError, UserCodeError
from repro.exec import BACKENDS, create_executor
from repro.exec.diskio import FileDisk
from repro.experiments.common import build_app

from ..conftest import comparable_counters, make_wordcount_job

PAPER_APPS = ("wordcount", "invertedindex", "wordpostag")


def run_backend(
    app_name: str, backend: str, freqbuf: bool, workers: int = 1, **conf
) -> JobResult:
    config = "freq" if freqbuf else "baseline"
    app = build_app(
        app_name,
        config,
        scale=0.02,
        num_splits=3,
        extra_conf={
            Keys.EXEC_BACKEND: backend,
            Keys.EXEC_WORKERS: workers,
            # Small buffer so every app actually spills more than once.
            Keys.SPILL_BUFFER_BYTES: 16 * 1024,
            **conf,
        },
    )
    return LocalJobRunner().run(app.job)


def serialized_output(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


@pytest.mark.parametrize("freqbuf", (False, True), ids=("plain", "freqbuf"))
@pytest.mark.parametrize("app_name", PAPER_APPS)
def test_parallel_backends_match_serial(app_name: str, freqbuf: bool) -> None:
    """A one-daemon cluster is one node, as a serial run is."""
    serial = run_backend(app_name, "serial", freqbuf)
    assert serial.output_pairs(), "empty reference run proves nothing"

    result = run_backend(app_name, "cluster", freqbuf)
    assert serialized_output(result) == serialized_output(serial)
    assert comparable_counters(result.counters.as_dict()) == serial.counters.as_dict()
    assert dict(result.ledger.work) == dict(serial.ledger.work)
    # Per-task record/byte accounting matches task by task too.
    for mine, ref in zip(result.map_results, serial.map_results):
        assert mine.task_id == ref.task_id
        assert mine.counters.values == ref.counters.values
    assert all(r.wall_seconds > 0 for r in result.map_results)


def profiled(result: JobResult) -> dict[str, int]:
    """The records each map task that profiled profiled."""
    return {
        r.task_id: r.counters.get(Counter.FREQBUF_PROFILED_RECORDS)
        for r in result.map_results
        if r.counters.get(Counter.FREQBUF_PROFILED_RECORDS)
    }


@pytest.mark.parametrize("app_name", PAPER_APPS)
def test_each_daemon_is_one_node(app_name: str) -> None:
    """With two daemons the digest holds and each daemon profiles once:
    its first map task profiles exactly what it would alone, and the
    daemon's later tasks reuse that task's frequent-key set."""
    serial = run_backend(app_name, "serial", freqbuf=True)
    alone = profiled(
        run_backend(
            app_name, "serial", freqbuf=True, **{Keys.FREQBUF_SHARE_ACROSS_TASKS: False}
        )
    )
    result = run_backend(app_name, "cluster", freqbuf=True, workers=2)
    assert result.output_digest() == serial.output_digest()

    first = profiled(result)
    hosts = {r.task_id: r.host for r in result.map_results}
    assert sorted(hosts[task] for task in first) == sorted(set(hosts.values()))
    assert first == {task: alone[task] for task in first}
    assert len(profiled(serial)) == 1


@pytest.mark.parametrize("backend", ("serial", "cluster"))
def test_failing_task_fails_job_on_every_backend(backend: str, tiny_text) -> None:
    """A permanently failing mapper exhausts its attempts on any backend
    (the cluster backend must ship the UserCodeError back by pickle)."""
    from repro.engine.api import Mapper
    from repro.serde.numeric import VIntWritable
    from repro.serde.text import Text

    class ExplodingMapper(Mapper):
        def map(self, key, value, emit):
            emit(Text("boom"), VIntWritable(1))
            raise RuntimeError("injected map failure")

    job = make_wordcount_job(
        tiny_text,
        conf_overrides={
            Keys.EXEC_BACKEND: backend,
            Keys.EXEC_WORKERS: 2,
            Keys.TASK_MAX_ATTEMPTS: 2,
        },
    )
    job.mapper_factory = ExplodingMapper

    runner = LocalJobRunner()
    with pytest.raises(JobFailedError, match="2 attempts"):
        runner.run(job)
    assert runner.task_attempts[f"{job.name}.m0000"] == 2


def test_user_code_error_pickles_round_trip() -> None:
    error = UserCodeError("map", "something broke")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, UserCodeError)
    assert clone.stage == "map"
    assert clone.message == "something broke"
    assert str(clone) == str(error)


def test_unknown_backend_rejected() -> None:
    """The rejection names every valid backend, lazy ones included."""
    from repro.exec import backend_names

    with pytest.raises(
        ExecBackendError, match="unknown execution backend.*cluster.*serial"
    ):
        create_executor("quantum")
    assert backend_names() == ["cluster", "serial"]
    assert set(BACKENDS) <= set(backend_names())


def test_retired_thread_backend_is_refused(tiny_text) -> None:
    job = make_wordcount_job(tiny_text, conf_overrides={Keys.EXEC_BACKEND: "thread"})
    with pytest.raises(ExecBackendError, match="'thread'; choose one of cluster, serial"):
        LocalJobRunner().run(job)


def test_file_disk_is_a_local_disk_drop_in(tmp_path) -> None:
    """FileDisk round-trips spill files through real storage and pickles
    down to a handle the parent process can read from."""
    from repro.io.spillfile import read_segment, write_spill

    disk = FileDisk(str(tmp_path / "d0"), "t.disk")
    partitions = [
        [(b"alpha", b"1"), (b"beta", b"2")],
        [(b"gamma", b"3")],
    ]
    index = write_spill(disk, "t.spill0", partitions)
    assert disk.exists("t.spill0")
    assert disk.size("t.spill0") == index.total_bytes
    assert disk.stats.bytes_written == index.total_bytes

    clone = pickle.loads(pickle.dumps(disk))
    for partition, expected in enumerate(partitions):
        assert list(read_segment(clone, index, partition)) == expected
    assert list(clone.list_files()) == ["t.spill0"]
