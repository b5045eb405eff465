"""Deterministic job identity: JobSpec.job_id and JobResult.output_digest.

A job id must name *what would run* — same code, same input shape, same
semantic configuration ⇒ same id, across processes and runs; anything
that changes the computation changes the id.  The output digest names
*what came out*, so two runs of one job on different (non-semantic)
backends must agree on both.
"""

from __future__ import annotations

from repro.analysis.report import job_stamp
from repro.config import Keys
from repro.engine.job import NON_SEMANTIC_CONF_PREFIXES, semantic_conf_items
from repro.engine.runner import LocalJobRunner

from tests.conftest import SumCombiner, SumReducer, TokenMapper, make_wordcount_job

TEXT = b"alpha beta alpha\ngamma beta alpha\n" * 6


class TestJobId:
    def test_stable_across_rebuilds(self):
        first = make_wordcount_job(TEXT).job_id()
        second = make_wordcount_job(TEXT).job_id()
        assert first == second
        assert len(first) == 16
        int(first, 16)  # hex

    def test_name_and_input_change_it(self):
        base = make_wordcount_job(TEXT).job_id()
        assert make_wordcount_job(TEXT, name="other").job_id() != base
        assert make_wordcount_job(TEXT + b"more words\n").job_id() != base
        assert make_wordcount_job(TEXT, num_splits=4).job_id() != base

    def test_semantic_conf_changes_it_but_backend_does_not(self):
        base = make_wordcount_job(TEXT).job_id()
        reducers = make_wordcount_job(
            TEXT, conf_overrides={Keys.NUM_REDUCERS: 5}
        ).job_id()
        backend = make_wordcount_job(
            TEXT, conf_overrides={Keys.EXEC_BACKEND: "cluster", Keys.EXEC_WORKERS: 4}
        ).job_id()
        assert reducers != base
        assert backend == base

    def test_user_code_changes_it(self):
        base = make_wordcount_job(TEXT).job_id()
        assert make_wordcount_job(TEXT, combiner=False).job_id() != base

    def test_source_digest_covers_the_user_classes(self):
        job = make_wordcount_job(TEXT)
        digest = job.source_digest()
        assert digest == make_wordcount_job(TEXT + b"x").source_digest(), (
            "source digest is about code, not data"
        )
        assert digest != make_wordcount_job(TEXT, combiner=False).source_digest()


class TestSemanticConfItems:
    def test_filters_exactly_the_nonsemantic_namespaces(self):
        job = make_wordcount_job(
            TEXT,
            conf_overrides={
                Keys.EXEC_BACKEND: "cluster",
                Keys.SHUFFLE_MODE: "net",
                Keys.NUM_REDUCERS: 3,
            },
        )
        keys = [k for k, _ in semantic_conf_items(job.conf)]
        assert Keys.NUM_REDUCERS in keys
        for key in keys:
            assert not key.startswith(NON_SEMANTIC_CONF_PREFIXES)
        assert Keys.EXEC_BACKEND not in keys
        assert Keys.SHUFFLE_MODE not in keys


class TestOutputDigest:
    def run(self, backend: str = "serial", data: bytes = TEXT):
        return LocalJobRunner().run(
            make_wordcount_job(
                data,
                conf_overrides={Keys.EXEC_BACKEND: backend, Keys.EXEC_WORKERS: 2},
            )
        )

    def test_result_carries_the_spec_id(self):
        result = self.run()
        assert result.job_id == make_wordcount_job(TEXT).job_id()

    def test_same_bytes_across_backends(self):
        serial = self.run("serial")
        cluster = self.run("cluster")
        assert serial.output_digest() == cluster.output_digest()
        assert serial.job_id == cluster.job_id

    def test_different_input_different_digest(self):
        assert (
            self.run(data=TEXT).output_digest()
            != self.run(data=TEXT + b"delta\n").output_digest()
        )

    def test_job_stamp_renders_both(self):
        result = self.run()
        stamp = job_stamp(result)
        assert result.job_id in stamp
        assert result.output_digest()[:12] in stamp


def test_conftest_classes_are_importable_for_identity():
    # job_id depends on getsource of these; guard against moving them
    # somewhere inspect cannot see.
    import inspect

    for cls in (TokenMapper, SumReducer, SumCombiner):
        assert inspect.getsource(cls)
