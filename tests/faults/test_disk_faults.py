"""Disk fault points: corrupt spill reads and torn spill writes.

Every backend must survive an attempt-bounded disk fault plan and
produce output byte-identical to a fault-free run, with the retries
showing up in TASK_REEXECUTIONS.  The serial net-shuffle case is the
one where the shuffle server's handler threads read segments through
the disk fault point while a task runs: those reads stay outside the
task's (thread-local) fault scope.
"""

from __future__ import annotations

import pytest

from repro.config import Keys
from repro.engine.counters import Counter
from repro.engine.runner import JobResult, LocalJobRunner
from repro.errors import JobFailedError

from ..conftest import make_wordcount_job

#: (backend, shuffle mode) cells, by id; the cluster's net cells run in
#: the chaos matrix.
CASES = (
    pytest.param("serial", "mem", id="serial"),
    pytest.param("serial", "net", id="serial-net", marks=pytest.mark.network),
    pytest.param("cluster", "mem", id="cluster"),
)


def run_wordcount(
    data: bytes, backend: str, fault_conf: dict | None = None, shuffle_mode: str = "mem"
) -> JobResult:
    conf: dict = {
        Keys.EXEC_BACKEND: backend,
        Keys.EXEC_WORKERS: 3,
        Keys.SHUFFLE_MODE: shuffle_mode,
    }
    if fault_conf:
        conf.update(fault_conf)
    job = make_wordcount_job(data, conf_overrides=conf, num_splits=3)
    return LocalJobRunner().run(job)


def output_bytes(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


@pytest.mark.parametrize(("backend", "shuffle_mode"), CASES)
def test_corrupt_spill_reads_are_retried_to_identical_output(
    backend: str, shuffle_mode: str, tiny_text
) -> None:
    clean = run_wordcount(tiny_text, backend, shuffle_mode=shuffle_mode)
    faulty = run_wordcount(
        tiny_text,
        backend,
        shuffle_mode=shuffle_mode,
        fault_conf={Keys.FAULTS_SPEC: "disk.corrupt:1.0:1", Keys.FAULTS_SEED: 1234},
    )
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.TASK_REEXECUTIONS) > 0
    # Every retried task recovered within its budget.
    assert all(a <= 2 for a in faulty.task_attempts.values())


@pytest.mark.parametrize(("backend", "shuffle_mode"), CASES)
def test_torn_spill_writes_are_retried_to_identical_output(
    backend: str, shuffle_mode: str, tiny_text
) -> None:
    clean = run_wordcount(tiny_text, backend, shuffle_mode=shuffle_mode)
    faulty = run_wordcount(
        tiny_text,
        backend,
        shuffle_mode=shuffle_mode,
        fault_conf={Keys.FAULTS_SPEC: "disk.torn:1.0:1", Keys.FAULTS_SEED: 1234},
    )
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.TASK_REEXECUTIONS) > 0


def test_unbounded_disk_faults_exhaust_attempts(tiny_text) -> None:
    """A disk fault that never clears must fail the job, not loop."""
    with pytest.raises(JobFailedError, match="attempts"):
        run_wordcount(
            tiny_text,
            "serial",
            {
                Keys.FAULTS_SPEC: "disk.torn:1.0:99",
                Keys.TASK_MAX_ATTEMPTS: 3,
            },
        )


def test_fault_free_runs_record_no_recovery_counters(tiny_text) -> None:
    """Zero-valued recovery counters must stay absent so fault-free
    counter dicts remain comparable across backends."""
    result = run_wordcount(tiny_text, "serial")
    for counter in (
        Counter.WORKER_CRASHES,
        Counter.TASK_REEXECUTIONS,
        Counter.TASK_TIMEOUTS,
        Counter.TASKS_QUARANTINED,
    ):
        assert counter not in result.counters.values


def test_fault_plan_does_not_change_job_identity(tiny_text) -> None:
    """Fault conf is non-semantic: it must not perturb the job id that
    keys caching and task naming."""
    plain = make_wordcount_job(tiny_text)
    faulted = make_wordcount_job(
        tiny_text, conf_overrides={Keys.FAULTS_SPEC: "disk.corrupt:0.5"}
    )
    assert plain.job_id() == faulted.job_id()
