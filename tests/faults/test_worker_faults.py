"""Worker fault points: abrupt death, hangs, and poison-task quarantine.

The cluster master must treat a dead worker daemon as a lost *attempt*,
reschedule it on survivors under the shared attempt budget, reap hung
workers via the task timeout (``Master._reap_hung``), and quarantine
tasks that kill every worker they touch (``Master._on_worker_dead``) —
all without perturbing output bytes.  Even with fault injection off, a
genuine worker crash surfaces as a task-attributed JobFailedError.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import Keys
from repro.engine.api import Mapper
from repro.engine.counters import Counter
from repro.engine.runner import JobResult, LocalJobRunner
from repro.errors import JobFailedError
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text

from ..conftest import make_wordcount_job


# The chaos marker arms the suite's per-test alarm: a hang the master
# fails to reap fails this test instead of stalling the run.
pytestmark = pytest.mark.chaos


def run_wordcount(data: bytes, fault_conf: dict | None = None) -> JobResult:
    conf: dict = {Keys.EXEC_BACKEND: "cluster", Keys.EXEC_WORKERS: 3}
    if fault_conf:
        conf.update(fault_conf)
    job = make_wordcount_job(data, conf_overrides=conf, num_splits=3)
    return LocalJobRunner().run(job)


def output_bytes(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


def test_killed_workers_are_rescheduled_to_identical_output(tiny_text) -> None:
    clean = run_wordcount(tiny_text)
    faulty = run_wordcount(
        tiny_text,
        {Keys.FAULTS_SPEC: "worker.kill:0.5", Keys.FAULTS_SEED: 1234},
    )
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.WORKER_CRASHES) > 0
    assert faulty.counters.get(Counter.TASK_REEXECUTIONS) > 0
    # Kill rules default to attempts=1, so every victim recovers on its
    # second attempt.
    assert all(a <= 2 for a in faulty.task_attempts.values())


def test_hung_workers_are_reaped_by_task_timeout(tiny_text) -> None:
    clean = run_wordcount(tiny_text)
    faulty = run_wordcount(
        tiny_text,
        {
            # Seed 13 selects exactly one of this job's five tasks for a
            # hang (selection is a pure hash, so this never drifts).
            Keys.FAULTS_SPEC: "worker.hang:0.4",
            Keys.FAULTS_SEED: 13,
            Keys.TASK_TIMEOUT: 1.0,
            # A speculative backup would beat the hung attempt before
            # the timeout reaps it.
            Keys.CLUSTER_SPECULATION: False,
        },
    )
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.TASK_TIMEOUTS) == 1
    # A reaped hang is observed as a crash of that worker.
    assert faulty.counters.get(Counter.WORKER_CRASHES) == 1


def test_poison_task_is_quarantined_with_attribution(tiny_text) -> None:
    """A task that kills every worker it touches is pulled from
    scheduling with a task-attributed error, instead of crash-looping
    the cluster forever."""
    with pytest.raises(JobFailedError, match=r"quarantined after 3 worker crash"):
        run_wordcount(
            tiny_text,
            {
                Keys.FAULTS_SPEC: "worker.kill:1.0:99",
                Keys.TASK_MAX_ATTEMPTS: 3,
            },
        )


class ExitingMapper(Mapper):
    """Dies abruptly — no exception, no cleanup — like a segfault or
    OOM kill would.  Not an injected fault: exercises the genuine-crash
    path with the fault subsystem disabled."""

    def map(self, key, value, emit):
        os._exit(3)


def test_genuine_worker_crash_is_task_attributed(tiny_text) -> None:
    """With fault injection off, an abrupt worker death must still
    surface as JobFailedError naming the task and its attempt count —
    never a bare channel/socket error."""
    job = make_wordcount_job(
        tiny_text,
        conf_overrides={
            Keys.EXEC_BACKEND: "cluster",
            Keys.EXEC_WORKERS: 2,
            Keys.TASK_MAX_ATTEMPTS: 2,
        },
        num_splits=2,
        name="crashy",
    )
    job.mapper_factory = ExitingMapper
    started = time.monotonic()
    with pytest.raises(
        JobFailedError,
        match=r"crashy\.m0000 quarantined after 2 worker crash\(es\), 2 attempt",
    ):
        LocalJobRunner().run(job)
    # The replacements forked for the last crashes connect after the
    # master stopped accepting; shutdown must not wait out the 2 s join
    # timeout on daemons that never registered.
    assert time.monotonic() - started < 2.0


class CrashOnFirstSightMapper(Mapper):
    """Kills its worker the first time it opens each split (keyed by the
    split's first record offset), then behaves on the retry; models a
    transient host fault rather than poison input."""

    marker_dir = ""  # patched per-test via conf-free class attribute

    def __init__(self) -> None:
        self._first_record = True

    def map(self, key, value, emit):
        if self._first_record:
            self._first_record = False
            marker = os.path.join(self.marker_dir, f"seen-{key.value}")
            if not os.path.exists(marker):
                with open(marker, "w") as fh:
                    fh.write("x")
                os._exit(9)
        for word in value.value.split():
            emit(Text(word), VIntWritable(1))


def test_transient_genuine_crashes_recover_byte_identical(tiny_text, tmp_path) -> None:
    clean = run_wordcount(tiny_text)
    CrashOnFirstSightMapper.marker_dir = str(tmp_path)
    job = make_wordcount_job(
        tiny_text,
        conf_overrides={Keys.EXEC_BACKEND: "cluster", Keys.EXEC_WORKERS: 3},
        num_splits=3,
    )
    job.mapper_factory = CrashOnFirstSightMapper
    result = LocalJobRunner().run(job)
    assert output_bytes(result) == output_bytes(clean)
    assert result.counters.get(Counter.WORKER_CRASHES) == 3
    assert result.counters.get(Counter.TASK_REEXECUTIONS) == 3
