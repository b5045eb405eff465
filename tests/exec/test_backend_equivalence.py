"""Backend equivalence: serial, thread, and cluster runs are identical.

The executor contract is that *where* tasks run never changes *what*
they compute: for every paper application, with and without
frequency-buffering, the parallel backends must reproduce the serial
backend's outputs, counters, and merged work ledger exactly (the
cluster backend's own executor counters aside).

Cross-task frequent-key sharing is disabled in the freqbuf runs:
parallel tasks have no well-defined "first task profiles the node"
order, so the parallel backends always profile per-task — equality with
serial therefore requires serial to do the same.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import Keys
from repro.engine.instrumentation import Op
from repro.engine.runner import JobResult, LocalJobRunner
from repro.errors import ExecBackendError, JobFailedError, UserCodeError
from repro.exec import BACKENDS, create_executor
from repro.exec.diskio import FileDisk
from repro.experiments.common import build_app

from ..conftest import comparable_counters, make_wordcount_job

PAPER_APPS = ("wordcount", "invertedindex", "wordpostag")
PARALLEL_BACKENDS = ("thread", "cluster")


def run_backend(app_name: str, backend: str, freqbuf: bool) -> JobResult:
    config = "freq" if freqbuf else "baseline"
    app = build_app(
        app_name,
        config,
        scale=0.02,
        num_splits=3,
        extra_conf={
            Keys.EXEC_BACKEND: backend,
            Keys.EXEC_WORKERS: 4,
            # Only serial shares per-node state: thread and cluster
            # tasks each get a fresh dict and all profile, so serial
            # must too for counters and ledger to be comparable.
            Keys.FREQBUF_SHARE_ACROSS_TASKS: False,
            # Small buffer so every app actually spills more than once.
            Keys.SPILL_BUFFER_BYTES: 16 * 1024,
        },
    )
    return LocalJobRunner().run(app.job)


def serialized_output(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


@pytest.mark.parametrize("freqbuf", (False, True), ids=("plain", "freqbuf"))
@pytest.mark.parametrize("app_name", PAPER_APPS)
def test_parallel_backends_match_serial(app_name: str, freqbuf: bool) -> None:
    serial = run_backend(app_name, "serial", freqbuf)
    assert serial.output_pairs(), "empty reference run proves nothing"

    for backend in PARALLEL_BACKENDS:
        result = run_backend(app_name, backend, freqbuf)
        assert serialized_output(result) == serialized_output(serial), backend
        assert comparable_counters(result.counters.as_dict()) == serial.counters.as_dict(), (
            backend
        )
        work, reference = dict(result.ledger.work), dict(serial.ledger.work)
        if backend == "cluster":
            # The daemons are distinct hosts: SHUFFLE also charges the
            # modelled network cost of the segments placement sent
            # across them.
            del work[Op.SHUFFLE], reference[Op.SHUFFLE]
        assert work == pytest.approx(reference), backend
        # Per-task record/byte accounting matches task by task too.
        for mine, ref in zip(result.map_results, serial.map_results):
            assert mine.task_id == ref.task_id
            assert mine.counters.values == ref.counters.values, backend
        assert [r.wall_seconds > 0 for r in result.map_results] == [
            True for _ in result.map_results
        ]


@pytest.mark.parametrize("backend", ("serial",) + PARALLEL_BACKENDS)
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
    assert backend_names() == ["cluster", "serial", "thread"]
    assert set(BACKENDS) <= set(backend_names())


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
