"""The job plan's contract, against a recording fake transport.

:meth:`repro.exec.base.Executor.run` is the only map → node-combine →
reduce driver; a backend is three transport methods.  The fake below is
the reason that seam is allowed to exist: with it the plan's order,
failure rule and accounting laws are pinned without forking a process,
and the real backends are then held to the same failure contract.
"""

from __future__ import annotations

import pytest

from repro.config import Keys
from repro.engine.api import Mapper
from repro.engine.counters import Counters
from repro.engine.instrumentation import Ledger
from repro.engine.runner import LocalJobRunner
from repro.errors import ConfigError, JobFailedError, ReproError, ShuffleError
from repro.exec import base
from repro.exec.base import Executor, run_with_retries
from repro.io.blockdisk import LocalDisk
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text

from ..conftest import make_wordcount_job

ALL_BACKENDS = ("serial", "cluster")


class RecordingExecutor(Executor):
    """A transport that runs attempts in-process, reports *every*
    failure as an outcome (the out-of-process discipline), and logs
    each call it receives."""

    name = "recording"

    def __init__(self, log: list, **kwargs) -> None:
        super().__init__(**kwargs)
        self.log = log

    def open(self, job) -> None:
        self.log.append("open")
        self.shared_state: dict = {}  # one node, as on serial

    def run_tasks(self, tasks, fetch_results):
        fetched = None if fetch_results is None else [r.task_id for r in fetch_results]
        self.log.append((f"{tasks[0].kind}s", [task.key for task in tasks], fetched))
        outcomes = []
        for task in tasks:
            attempts: dict[str, int] = {}
            try:
                outcomes.append(
                    run_with_retries(
                        self.job, task, self.splits, fetch_results, self.host,
                        shared_state=self.shared_state, attempts_out=attempts,
                    )
                )
            except ReproError as exc:
                outcomes.append((task.key, attempts.get(task.key, 0), None, exc))
        return outcomes

    def close(self) -> list:
        self.log.append("close")
        return []


class PlanLog(list):
    """The transport's calls and the plan's own steps, in order, plus
    what each plan step last returned."""

    def __init__(self) -> None:
        super().__init__()
        self.returned: dict = {}


PLAN_STEPS = (
    "start_shuffle_server",
    "apply_node_combine",
    "materialize_map_result",
    "assemble_job_result",
)


@pytest.fixture
def plan_log(monkeypatch) -> PlanLog:
    log = PlanLog()

    def logged(name: str):
        real = getattr(base, name)

        def wrapper(*args, **kwargs):
            if not log or log[-1] != name:  # once per step, not per result
                log.append(name)
            log.returned[name] = real(*args, **kwargs)
            return log.returned[name]

        return wrapper

    for name in PLAN_STEPS:
        monkeypatch.setattr(base, name, logged(name))
    return log


def steps(log: list) -> list[str]:
    return [entry if isinstance(entry, str) else entry[0] for entry in log]


class FailsFromSplitOne(Mapper):
    """Fails every map task but the first, each with its own message
    (a line's key is its byte offset; forked workers inherit the
    class attribute)."""

    first_split_bytes = 0

    def map(self, key, value, emit):
        emit(Text("boom"), VIntWritable(1))
        if key.value >= self.first_split_bytes:
            raise RuntimeError(f"injected failure at offset {key.value}")


def failing_job(data: bytes, conf: dict):
    job = make_wordcount_job(data, conf, num_splits=3)
    job.mapper_factory = FailsFromSplitOne
    FailsFromSplitOne.first_split_bytes = job.input_format.splits()[0].length
    return job


def test_plan_order(plan_log, tiny_text) -> None:
    job = make_wordcount_job(
        tiny_text,
        {Keys.SHUFFLE_MODE: "net", Keys.NODE_COMBINE: True},
        num_splits=3,
    )
    result = RecordingExecutor(plan_log).run(job)
    assert steps(plan_log) == [
        "open",
        "maps",
        "start_shuffle_server",  # publish: the driver's server comes up
        "apply_node_combine",
        "reduces",
        "materialize_map_result",
        "close",
        "assemble_job_result",
    ]
    # Reducers fetched the published per-node synthetic, not the originals.
    (_, _, fetched) = plan_log[steps(plan_log).index("reduces")]
    assert fetched == [f"{job.name}.nc.localhost"]
    assert result.output_digest() == LocalJobRunner().run(job).output_digest()
    assert len(result.shuffle_hosts) == 1


def test_first_failure_in_task_order_fails_the_job_and_close_still_runs(
    plan_log, tiny_text
) -> None:
    job = failing_job(tiny_text, {Keys.TASK_MAX_ATTEMPTS: 2})
    executor = RecordingExecutor(plan_log)
    # Both m0001 and m0002 failed; the transport reported both.
    with pytest.raises(JobFailedError, match=r"m0001 failed 2 attempts"):
        executor.run(job)
    assert steps(plan_log) == ["open", "maps", "close"]
    assert executor.task_attempts == {
        f"{job.name}.m0000": 1, f"{job.name}.m0001": 2, f"{job.name}.m0002": 2,
    }


def test_opaque_errors_become_task_attributed_failures(plan_log, tiny_text) -> None:
    class Opaque(RecordingExecutor):
        def run_tasks(self, tasks, fetch_results):
            return [(tasks[0].key, 3, None, OSError("pipe burst"))]

    job = make_wordcount_job(tiny_text)
    with pytest.raises(JobFailedError, match=r"m0000 failed .* 3 attempt.*pipe burst"):
        Opaque(plan_log).run(job)
    assert plan_log[-1] == "close"


@pytest.mark.parametrize("backend", ("serial", "cluster"))
@pytest.mark.parametrize("key", (Keys.SHUFFLE_MODE, Keys.SPILL_COMPRESSION))
def test_unknown_choice_is_refused_at_submit(key: str, backend: str, tiny_text) -> None:
    """One check at the top of the plan: the same ConfigError, naming the
    key, on every backend, and no task attempted."""
    job = make_wordcount_job(tiny_text, {Keys.EXEC_BACKEND: backend, key: "bogus"}, num_splits=4)
    runner = LocalJobRunner()
    with pytest.raises(ConfigError, match=f"{key}='bogus' is not one of"):
        runner.run(job)
    assert runner.task_attempts == {}


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_unknown_repro_key_is_refused_at_submit(backend: str, tiny_text) -> None:
    """A retired key and a typo both fail at submit, naming the key, on
    every backend; keys outside ``repro.`` belong to the application."""
    retired = (
        "repro.lint.opt.mode",
        "repro.engine.grouping",
        "repro.shuffle.timeout.seconds",
        "repro.cluster.register.timeout.seconds",
    )
    for key in (*retired, "repro.freqbuf.enable"):
        job = make_wordcount_job(tiny_text, {Keys.EXEC_BACKEND: backend, key: True})
        runner = LocalJobRunner()
        with pytest.raises(ConfigError, match=f"^{key} is not a configuration key"):
            runner.run(job)
        assert runner.task_attempts == {}
    base.check_choices(make_wordcount_job(tiny_text, {"wordcount.min.length": 3}))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_failure_contract_holds_on_every_backend(backend: str, tiny_text) -> None:
    conf = {Keys.EXEC_BACKEND: backend, Keys.EXEC_WORKERS: 2, Keys.TASK_MAX_ATTEMPTS: 2}
    job = failing_job(tiny_text, conf)
    runner = LocalJobRunner()
    with pytest.raises(JobFailedError, match=r"m0001 failed 2 attempts"):
        runner.run(job)
    assert runner.task_attempts[f"{job.name}.m0001"] == 2

    # A framework error keeps its causal type: fetches that never succeed
    # are a ShuffleError from the reduce side, not a task failure.
    conf.update({
        Keys.SHUFFLE_MODE: "net",
        Keys.FAULTS_SPEC: "shuffle.drop:1.0:99",
        Keys.SHUFFLE_FETCH_ATTEMPTS: 2,
        Keys.SHUFFLE_BACKOFF_BASE: 0.005,
        Keys.SHUFFLE_BACKOFF_MAX: 0.02,
    })
    with pytest.raises(ShuffleError, match="failed after 2 attempts"):
        LocalJobRunner().run(make_wordcount_job(tiny_text, conf, num_splits=3))


@pytest.mark.parametrize("node_combine", (False, True), ids=("plain", "node-combine"))
def test_task_accounting_sums_to_the_job(plan_log, node_combine, tiny_text) -> None:
    job = make_wordcount_job(tiny_text, {Keys.NODE_COMBINE: node_combine}, num_splits=3)
    result = RecordingExecutor(plan_log).run(job)
    tasks = result.map_results + result.reduce_results
    ledger = Ledger.summed([r.ledger for r in tasks])
    counters = Counters.summed([r.counters for r in tasks])
    _, stage = plan_log.returned["apply_node_combine"]
    assert (stage is not None) == node_combine
    if stage is not None:
        ledger.merge(stage.ledger)
        counters.merge(stage.counters)
    assert ledger.work == result.ledger.work
    assert counters.values == result.counters.values
    assert all(isinstance(r.disk, LocalDisk) for r in result.map_results)
