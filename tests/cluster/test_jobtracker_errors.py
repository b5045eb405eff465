"""Cluster job runner error paths and retry behaviour."""

import pytest

from repro.apps.unsafe import build_unsafewordcount
from repro.cluster.jobtracker import ClusterJobRunner
from repro.cluster.specs import local_cluster
from repro.config import Keys
from repro.engine.counters import Counter
from repro.engine.inputformat import RecordListInput
from repro.engine.runner import LocalJobRunner
from repro.errors import JobFailedError, LintError
from repro.experiments.common import build_app
from tests.conftest import make_wordcount_job


class TestInputValidation:
    def test_non_text_input_rejected(self):
        job = make_wordcount_job(b"a b\n")
        from repro.serde.numeric import VIntWritable
        from repro.serde.text import Text

        job.input_format = RecordListInput([[(Text("a"), VIntWritable(1))]])
        from repro.apps.base import AppJob

        app = AppJob("custom", True, job)
        with pytest.raises(TypeError, match="TextInput"):
            ClusterJobRunner(local_cluster()).run(app)


class TestClusterRetries:
    def test_flaky_map_task_retried_on_cluster(self):
        app = build_app(
            "wordcount", "baseline", scale=0.02,
            extra_conf={Keys.NUM_REDUCERS: 2}, num_splits=4,
        )
        attempts = {"count": 0}
        original_factory = app.job.mapper_factory

        class Flaky(original_factory):  # type: ignore[misc, valid-type]
            def setup(self):
                attempts["count"] += 1
                if attempts["count"] == 1:
                    raise RuntimeError("first attempt dies")

        app.job.mapper_factory = Flaky
        result = ClusterJobRunner(local_cluster()).run(app)
        assert attempts["count"] >= 2  # a retry happened
        out = {
            k.value: v.value for r in result.reduce_results for k, v in r.output
        }
        assert out == app.oracle()

    def test_permanent_failure_fails_job(self):
        app = build_app(
            "wordcount", "baseline", scale=0.02,
            extra_conf={Keys.NUM_REDUCERS: 2, Keys.TASK_MAX_ATTEMPTS: 2},
            num_splits=2,
        )
        original_factory = app.job.mapper_factory

        class Dead(original_factory):  # type: ignore[misc, valid-type]
            def setup(self):
                raise RuntimeError("always dies")

        app.job.mapper_factory = Dead
        with pytest.raises(JobFailedError):
            ClusterJobRunner(local_cluster()).run(app)


class TestSameJobPlanAsEveryBackend:
    """The simulator runs the one job plan, so a conf key that changes
    how a job runs on the serial backend changes it here too instead of
    being dropped."""

    @staticmethod
    def wordcount(extra=None):
        return build_app(
            "wordcount", "combined", scale=0.02, num_splits=4,
            extra_conf={Keys.NUM_REDUCERS: 2, **(extra or {})},
        )

    @pytest.mark.parametrize(
        "extra, effect",
        [
            ({Keys.NODE_COMBINE: True}, Counter.NODE_COMBINE_IN_RECORDS),
            (
                {Keys.FAULTS_SPEC: "disk.corrupt:0.5", Keys.FAULTS_SEED: 7},
                Counter.TASK_REEXECUTIONS,
            ),
            ({Keys.SHUFFLE_MODE: "net"}, Counter.SHUFFLE_FETCHES),
        ],
        ids=["node-combine", "disk-corrupt", "net-shuffle"],
    )
    def test_an_option_takes_effect_and_keeps_the_output(self, extra, effect):
        # Node-combine folds, faults re-execute and the net shuffle
        # moves bytes over TCP — as much as on the serial backend, and
        # none of them may change the output of the plain run.
        plain = LocalJobRunner().run(self.wordcount().job)
        app = self.wordcount(extra)
        result = ClusterJobRunner(local_cluster()).run(app)
        serial = LocalJobRunner().run(app.job)
        assert result.output_digest() == plain.output_digest()
        assert result.counters.get(effect) > 0
        assert result.counters.get(effect) == serial.counters.get(effect)
        if effect is Counter.NODE_COMBINE_IN_RECORDS:
            assert result.counters.get(effect) == result.counters.get(
                Counter.MAP_FINAL_OUTPUT_RECORDS
            )

    def test_strict_lint_refuses_an_unsafe_job_at_submit(self):
        app = build_unsafewordcount(conf_overrides={Keys.LINT_MODE: "strict"})
        with pytest.raises(LintError):
            ClusterJobRunner(local_cluster()).run(app)
