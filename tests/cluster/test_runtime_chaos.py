"""Chaos on the real cluster runtime: killed daemons, dropped
heartbeats, and stalled stragglers — every scenario must reproduce the
fault-free bytes while the matching recovery counters prove the
machinery actually engaged.  All victims are chosen by seeded hashes,
so a red test reproduces identically every run."""

from __future__ import annotations

import pytest

from repro.config import Keys
from repro.engine.counters import Counter
from repro.engine.runner import JobResult, LocalJobRunner

from ..conftest import make_wordcount_job


def run_cluster(data: bytes, extra: dict | None = None, shuffle: str = "mem") -> JobResult:
    conf: dict = {
        Keys.EXEC_BACKEND: "cluster",
        Keys.EXEC_WORKERS: 3,
        Keys.SHUFFLE_MODE: shuffle,
    }
    conf.update(extra or {})
    job = make_wordcount_job(data, conf_overrides=conf, num_splits=3)
    return LocalJobRunner().run(job)


def output_bytes(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


@pytest.mark.cluster
@pytest.mark.chaos
@pytest.mark.parametrize("shuffle", ("mem", "net"))
def test_killed_workers_are_rescheduled_byte_identical(shuffle, tiny_text) -> None:
    """worker.kill takes daemons down mid-attempt; the master detects
    the channel EOF, reschedules the lost attempts on replacements, and
    the job's bytes never change.  In net mode this also exercises
    re-hosting: the dead daemon's shuffle server vanished with it."""
    clean = run_cluster(tiny_text, shuffle=shuffle)
    faulty = run_cluster(
        tiny_text,
        shuffle=shuffle,
        extra={Keys.FAULTS_SPEC: "worker.kill:0.5", Keys.FAULTS_SEED: 1234},
    )
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.WORKER_CRASHES) > 0
    assert faulty.counters.get(Counter.WORKERS_LOST) > 0
    assert faulty.counters.get(Counter.TASK_REEXECUTIONS) > 0


@pytest.mark.cluster
@pytest.mark.chaos
def test_dropped_heartbeats_kill_the_silent_worker(tiny_text) -> None:
    """master.heartbeat_drop silently discards every ping from one
    victim (seed 2 selects w01 and spares its replacement): the victim
    looks dead to the sweep, its work moves elsewhere, bytes hold."""
    # Long enough that the victim dies within the job's life (eight
    # missed 10 ms heartbeats) with every module already imported, which
    # is how the forked daemons start when earlier tests ran jobs.
    text = tiny_text * 60
    clean = run_cluster(text)
    faulty = run_cluster(
        text,
        extra={
            Keys.FAULTS_SPEC: "master.heartbeat_drop:0.4:999",
            Keys.FAULTS_SEED: 2,
            Keys.CLUSTER_HEARTBEAT_INTERVAL: 0.01,
        },
    )
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.WORKERS_LOST) > 0


@pytest.mark.cluster
@pytest.mark.chaos
def test_stalled_straggler_is_beaten_by_speculative_backup(tiny_text) -> None:
    """worker.stall delays exactly one map attempt (seed 5) far past the
    straggler threshold; the speculation monitor launches a backup on a
    free daemon, the backup wins, and the stalled original's late result
    is discarded without changing a byte."""
    clean = run_cluster(tiny_text)
    faulty = run_cluster(
        tiny_text,
        extra={
            Keys.FAULTS_SPEC: "worker.stall:0.4",
            Keys.FAULTS_SEED: 5,
            Keys.FAULTS_DELAY: 2.5,
            # Low floor so the ~2.5s stall reads as a straggler quickly.
            Keys.CLUSTER_SPEC_MIN_SECONDS: 0.2,
        },
    )
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.SPECULATIVE_LAUNCHES) > 0
    assert faulty.counters.get(Counter.SPECULATIVE_WINS) >= 1
    # The backup ran as a later attempt of the same task.
    assert faulty.counters.get(Counter.TASK_REEXECUTIONS) > 0
    # Nobody died: speculation raced the stall, no recovery was needed.
    assert faulty.counters.get(Counter.WORKER_CRASHES) == 0


@pytest.mark.cluster
@pytest.mark.chaos
def test_speculation_can_be_disabled(tiny_text) -> None:
    """With speculation off the stalled attempt just runs long; the job
    still finishes correctly, only slower — the ablation the benchmark
    measures."""
    faulty = run_cluster(
        tiny_text,
        extra={
            Keys.FAULTS_SPEC: "worker.stall:0.4",
            Keys.FAULTS_SEED: 5,
            Keys.FAULTS_DELAY: 1.0,
            Keys.CLUSTER_SPECULATION: False,
        },
    )
    clean = run_cluster(tiny_text)
    assert output_bytes(faulty) == output_bytes(clean)
    assert faulty.counters.get(Counter.SPECULATIVE_LAUNCHES) == 0
