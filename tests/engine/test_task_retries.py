"""Failure injection: task-attempt retries (Hadoop's fault tolerance)."""

import pytest

from repro.config import Keys
from repro.engine.runner import LocalJobRunner
from repro.errors import JobFailedError, SpillBufferError
from tests.conftest import SumReducer, TokenMapper, make_wordcount_job


class FlakyMapper(TokenMapper):
    """Fails its first attempt outright, then behaves normally —
    mimicking a task that crashes on one node and succeeds when re-run."""

    attempts = 0
    failures = 1

    def setup(self):
        FlakyMapper.attempts += 1
        if FlakyMapper.attempts <= FlakyMapper.failures:
            raise RuntimeError("transient failure")


class FlakyReducer(SumReducer):
    attempts = 0
    failures = 2

    def setup(self):
        FlakyReducer.attempts += 1
        if FlakyReducer.attempts <= FlakyReducer.failures:
            raise RuntimeError("reduce-side transient failure")


@pytest.fixture(autouse=True)
def reset_flaky_state():
    FlakyMapper.attempts = 0
    FlakyReducer.attempts = 0
    yield


class TestMapRetries:
    def test_transient_failure_recovers(self, tiny_text, wordcount_truth):
        job = make_wordcount_job(tiny_text, num_splits=1)
        job.mapper_factory = FlakyMapper
        runner = LocalJobRunner()
        result = runner.run(job)
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert out == wordcount_truth(tiny_text)
        # The map task needed two attempts.
        assert runner.task_attempts[f"{job.name}.m0000"] == 2

    def test_attempt_budget_exhausted(self, tiny_text):
        job = make_wordcount_job(
            tiny_text, {Keys.TASK_MAX_ATTEMPTS: 2}, num_splits=1
        )

        class AlwaysFails(TokenMapper):
            def map(self, key, value, emit):
                raise RuntimeError("permanent")

        job.mapper_factory = AlwaysFails
        with pytest.raises(JobFailedError, match="2 attempts"):
            LocalJobRunner().run(job)

    def test_framework_error_in_emit_is_not_retried_as_user_code(self):
        # A record larger than the whole spill buffer fails inside emit:
        # a framework error, raised with its own type on the first
        # attempt — not a user map() failure that burns every retry.
        job = make_wordcount_job(
            b"x" * 3000 + b"\n", {Keys.SPILL_BUFFER_BYTES: 1024}, num_splits=1
        )
        runner = LocalJobRunner()
        with pytest.raises(SpillBufferError, match="single record"):
            runner.run(job)
        assert runner.task_attempts == {"wc-test.m0000": 1}

    def test_retry_leaves_no_partial_output(self, tiny_text, wordcount_truth):
        """A failed attempt's partial spills must not leak into the job
        output (each attempt gets a fresh disk and collector)."""
        job = make_wordcount_job(tiny_text, num_splits=1)
        flaky = type("HalfwayBomb", (TokenMapper,), {})

        state = {"attempt": 0, "records": 0}

        def map_impl(self, key, value, emit):
            state["records"] += 1
            if state["attempt"] == 0 and state["records"] > 30:
                state["attempt"] = 1
                state["records"] = 0
                raise RuntimeError("mid-task crash")
            TokenMapper.map(self, key, value, emit)

        flaky.map = map_impl
        job.mapper_factory = flaky
        result = LocalJobRunner().run(job)
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert out == wordcount_truth(tiny_text)


class TestReduceRetries:
    def test_reduce_retry_recovers(self, tiny_text, wordcount_truth):
        job = make_wordcount_job(tiny_text, {Keys.NUM_REDUCERS: 1})
        job.reducer_factory = FlakyReducer
        result = LocalJobRunner().run(job)
        out = {k.value: v.value for k, v in result.output_pairs()}
        assert out == wordcount_truth(tiny_text)
        assert FlakyReducer.attempts == 3  # 2 failures + 1 success
