"""Split-level delta recompute: identity, eligibility, fallback.

The headline contract is byte-identity: a delta run that merges cached
map segments with freshly computed ones must produce exactly the bytes
a cold full run produces, on every backend.  The safety contract is the
eligibility gate: anything the merge-cached path cannot prove sound
(hash grouping, frequency buffering, an unverified combiner fold) falls
back to a full recompute — and still returns the right answer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import Keys
from repro.engine.api import Combiner
from repro.engine.inputformat import RecordListInput, TextInput
from repro.engine.job import JobSpec
from repro.engine.runner import LocalJobRunner
from repro.engine.counters import Counter
from repro.apps.wordcount import (
    WordCountMapper,
    WordCountReducer,
    wordcount_oracle,
)
from repro.apps.base import make_conf
from repro.lint.findings import FOLD_VIOLATED
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from repro.stream.delta import (
    delta_eligibility,
    delta_run_job,
    split_content_key,
)
from repro.stream.manifest import SplitManifest

pytestmark = pytest.mark.stream

SPLIT_SIZE = 2048


def make_job(data: bytes, conf_overrides: dict | None = None) -> JobSpec:
    """WordCount with a *fixed* split size: append-stable boundaries are
    what split reuse depends on."""
    return JobSpec(
        name="wordcount",
        input_format=TextInput(data, split_size=SPLIT_SIZE, path="corpus.txt"),
        mapper_factory=WordCountMapper,
        reducer_factory=WordCountReducer,
        combiner_factory=None,
        map_output_key_cls=Text,
        map_output_value_cls=VIntWritable,
        conf=make_conf(conf_overrides),
    )


class CountPeekingCombiner(Combiner):
    """Sums correctly but peeks at the batch size — the analyzer flags
    ``combiner-count-dependent``, so the fold verdict is *violated* and
    the delta path must refuse to merge cached segments."""

    def combine(self, key, values, emit):
        if len(values) >= 1:  # count-dependent guard (harmless, unprovable)
            emit(key, VIntWritable(sum(v.value for v in values)))


def test_cold_then_append_is_byte_identical(tmp_path, corpus_lines) -> None:
    manifest = SplitManifest(str(tmp_path / "manifest"))
    appended = corpus_lines + b"some freshly appended words of text\n" * 40

    first = delta_run_job(make_job(corpus_lines), manifest)
    assert first.eligible and first.reused == 0
    assert first.recomputed == len(first.result.map_results)
    assert first.result.output_digest() == (
        LocalJobRunner().run(make_job(corpus_lines)).output_digest()
    )

    second = delta_run_job(make_job(appended), manifest)
    assert second.eligible
    assert second.reused > 0, "append must reuse the unchanged splits"
    assert second.recomputed < len(second.result.map_results)
    cold = LocalJobRunner().run(make_job(appended))
    assert second.result.output_digest() == cold.output_digest()
    counts = {
        k.value: v.value for k, v in second.result.output_pairs()
    }
    assert counts == wordcount_oracle(appended)


def test_counters_report_reuse(tmp_path, corpus_lines) -> None:
    manifest = SplitManifest(str(tmp_path / "manifest"))
    delta_run_job(make_job(corpus_lines), manifest)
    outcome = delta_run_job(make_job(corpus_lines), manifest)
    assert outcome.reused == len(outcome.result.map_results)
    assert outcome.recomputed == 0
    assert outcome.result.counters.get(Counter.STREAM_SPLITS_REUSED) == outcome.reused
    assert outcome.result.counters.get(Counter.STREAM_SPLITS_RECOMPUTED) == 0


def test_reuse_across_backends(tmp_path, corpus_lines) -> None:
    """Segments cached by a serial run satisfy a process-backend rerun:
    the manifest key is content identity, not execution placement."""
    manifest = SplitManifest(str(tmp_path / "manifest"))
    serial = delta_run_job(make_job(corpus_lines), manifest)
    process = delta_run_job(
        make_job(
            corpus_lines,
            {Keys.EXEC_BACKEND: "process", Keys.EXEC_WORKERS: 2},
        ),
        manifest,
    )
    assert process.reused == len(process.result.map_results)
    assert process.result.output_digest() == serial.result.output_digest()


def test_freqbuf_is_ineligible(tmp_path, corpus_lines) -> None:
    manifest = SplitManifest(str(tmp_path / "manifest"))
    job = make_job(corpus_lines, {Keys.FREQBUF_ENABLED: True})
    eligible, reason = delta_eligibility(job)
    assert not eligible and "frequency buffering" in reason
    outcome = delta_run_job(job, manifest)
    assert not outcome.eligible
    assert len(manifest) == 0, "ineligible runs must not populate the manifest"
    assert outcome.result.output_digest() == (
        LocalJobRunner().run(make_job(corpus_lines)).output_digest()
    )


def test_hash_grouping_is_ineligible(corpus_lines) -> None:
    job = make_job(corpus_lines, {Keys.GROUPING: "hash"})
    eligible, reason = delta_eligibility(job)
    assert not eligible and "grouping" in reason


def test_unverified_fold_falls_back_to_full_recompute(
    tmp_path, corpus_lines
) -> None:
    """Satellite: a combiner the analyzer cannot prove fold-like must
    not take the merge-cached-segments path — and the fallback still
    computes the right answer."""
    manifest = SplitManifest(str(tmp_path / "manifest"))
    job = dataclasses.replace(
        make_job(corpus_lines), combiner_factory=CountPeekingCombiner
    )
    eligible, reason = delta_eligibility(job)
    assert not eligible and FOLD_VIOLATED in reason
    outcome = delta_run_job(job, manifest)
    assert not outcome.eligible and outcome.reused == 0
    assert outcome.result.counters.get(Counter.STREAM_SPLITS_RECOMPUTED) == len(
        outcome.result.map_results
    )
    counts = {k.value: v.value for k, v in outcome.result.output_pairs()}
    assert counts == wordcount_oracle(corpus_lines)


def test_non_text_input_is_ineligible(corpus_lines) -> None:
    records = dataclasses.replace(
        make_job(corpus_lines),
        input_format=RecordListInput([[(Text("k"), VIntWritable(1))]]),
    )
    eligible, reason = delta_eligibility(records)
    assert not eligible and "text" in reason


def test_split_keys_stable_under_append(corpus_lines) -> None:
    """Interior splits keep their content key when the input grows; the
    trailing partial split (whose effective range changed) does not."""
    appended = corpus_lines + b"appended tail line\n" * 50
    job_a, job_b = make_job(corpus_lines), make_job(appended)
    keys_a = [
        split_content_key(job_a, corpus_lines, s)
        for s in job_a.input_format.splits()
    ]
    keys_b = [
        split_content_key(job_b, appended, s)
        for s in job_b.input_format.splits()
    ]
    assert keys_b[: len(keys_a) - 1] == keys_a[:-1]
    assert keys_a[-1] not in keys_b


def test_split_key_tracks_user_code_and_conf(corpus_lines) -> None:
    """The content key must change when anything that shapes the map
    output changes — reducer count included (it sets partitioning)."""
    job = make_job(corpus_lines)
    other = make_job(corpus_lines, {Keys.NUM_REDUCERS: 4})
    split = job.input_format.splits()[0]
    assert split_content_key(job, corpus_lines, split) != split_content_key(
        other, corpus_lines, split
    )
