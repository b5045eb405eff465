"""Split-level delta recompute.

A job whose input grew by appending shares most of its splits with the
previous run: every split whose effective byte range is unchanged would
produce an identical map output, so re-running its map task is pure
waste.  :func:`delta_run_job` is not a job driver: it computes split
content keys, rebuilds the unchanged splits' outputs from the
:class:`~repro.stream.manifest.SplitManifest`, and hands them to the
one job plan as ``executor.run(job, reuse={index: result})`` — map
tasks then run only for the new/changed splits, under the job's real
task ids, and node-combine and the reduce phase run on the job's own
backend and shuffle mode like any job's.  The result is byte-identical
to a cold full run because:

* a split's map output is a deterministic function of its effective
  bytes, the user code, and the semantic configuration — all digested
  into the split content key;
* the reduce merge consumes map outputs in split order, so cached and
  fresh segments interleave exactly as a full run's would;
* the ``mem`` and ``net`` shuffle paths are byte-identical by the
  equivalence contract the shuffle suite enforces.

Safety gate: the combiner-algebra verdict from :mod:`repro.lint` must
be ``verified`` or ``no-combiner`` — a combiner the analyzer cannot
prove fold-like may legally produce batching-dependent partial
aggregates, so reusing its old segments next to fresh ones is only
sound when the fold algebra holds.  Anything weaker (plus hash
grouping, frequency buffering's cross-task shared state, or a
non-text input) falls back to a full recompute.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field

from ..config import Keys
from ..engine.counters import Counter, Counters
from ..engine.inputformat import TextInput
from ..engine.instrumentation import Ledger
from ..engine.job import JobSpec, semantic_conf_items, source_fingerprint
from ..engine.maptask import MapTaskResult
from ..engine.pipeline import PipelineResult
from ..engine.runner import JobResult, executor_for, lint_at_submit
from ..exec.base import map_task_id
from ..io.blockdisk import LocalDisk
from ..io.linereader import FileSplit
from ..io.spillfile import SegmentIndexEntry, SpillIndex, segment_payload
from ..lint.findings import FOLD_NO_COMBINER, FOLD_VERIFIED
from .manifest import CachedSegments, SplitManifest

__all__ = ["DeltaOutcome", "delta_eligibility", "delta_run_job", "split_content_key"]


@dataclass
class DeltaOutcome:
    """What a delta-aware job run did and why."""

    result: JobResult
    eligible: bool
    reused: int = 0
    recomputed: int = 0
    reason: str = ""  # why the job fell back to a full recompute
    split_keys: list[str] = field(default_factory=list)


def delta_eligibility(job: JobSpec, lint_report=None) -> tuple[bool, str]:
    """May *job* take the merge-cached-segments path?

    Returns ``(True, "")`` or ``(False, reason)``.  *lint_report* is an
    already-computed analysis (the runner's submit-time report); when
    absent the combiner-algebra analysis runs here.
    """
    if not isinstance(job.input_format, TextInput):
        return False, "input is not line-oriented text"
    if job.conf.get_str(Keys.GROUPING) != "sort":
        return False, f"grouping={job.conf.get_str(Keys.GROUPING)!r} (need 'sort')"
    if job.conf.get_bool(Keys.FREQBUF_ENABLED):
        # The frequency-buffering collector shares its frequent-key set
        # across the tasks of a node, coupling split outputs to which
        # other splits ran alongside them.
        return False, "frequency buffering couples map outputs across splits"
    fold_like = getattr(lint_report, "fold_like", None)
    if fold_like is None:
        from ..lint import analyze_job

        fold_like = analyze_job(job).fold_like
    if fold_like not in (FOLD_VERIFIED, FOLD_NO_COMBINER):
        return False, f"combiner fold verdict is {fold_like!r}"
    return True, ""


def _effective_range(data: bytes, split: FileSplit) -> tuple[int, int]:
    """The byte range a split's map output actually depends on.

    The line reader skips to the first newline at/after ``offset - 1``
    and always finishes the line straddling the split's end, so the
    effective content starts one byte before the split and runs through
    the end of the straddling line.
    """
    start = max(0, split.offset - 1)
    end = split.offset + split.length
    if end < len(data):
        newline = data.find(b"\n", end - 1)
        end = len(data) if newline == -1 else newline + 1
    else:
        end = len(data)
    return start, end


def _job_key_base(job: JobSpec) -> "hashlib._Hash":
    """The split-invariant part of the content key: user code, semantic
    configuration, and any installed projection.  Source digesting walks
    the job's class sources with ``inspect``/``ast``, which is far too
    expensive to repeat per split — callers hash this once and ``copy()``
    the state for each split."""
    digest = hashlib.sha256()
    digest.update(job.source_digest().encode("ascii"))
    for key, value in semantic_conf_items(job.conf):
        digest.update(f"{key}={value};".encode("utf-8"))
    if job.value_projection is not None:
        digest.update(source_fingerprint(job.value_projection).encode("utf-8"))
    return digest


def split_content_key(
    job: JobSpec,
    data: bytes,
    split: FileSplit,
    prefix: "hashlib._Hash | None" = None,
) -> str:
    """Content key of one split under one job: digests the split's
    effective bytes plus everything that shapes its map output — user
    code, semantic configuration, any installed projection, and the
    split's position (offset/length pin the straddle semantics).

    *prefix* is an optional precomputed :func:`_job_key_base`; pass it
    when keying many splits of the same job so the source digest is
    computed once, not per split.
    """
    digest = (_job_key_base(job) if prefix is None else prefix).copy()
    digest.update(f"|{split.offset}|{split.length}|".encode("ascii"))
    start, end = _effective_range(data, split)
    digest.update(data[start:end])
    return digest.hexdigest()[:40]


def _rebuild_map_result(
    job: JobSpec, index: int, split: FileSplit, cached: CachedSegments
) -> MapTaskResult:
    """Reconstitute a genuine map result from stored segment payloads.

    Payloads are uncompressed record frames (what ``segment_payload``
    returns), written back with ``codec=None`` so the reduce side reads
    bytes identical to the original task's output.  Accounting is empty
    on purpose: no work happened.
    """
    task_id = map_task_id(job, index)
    disk = LocalDisk(f"{task_id}.disk")
    path = f"{task_id}.cached.out"
    entries: list[SegmentIndexEntry] = []
    with disk.create(path) as writer:
        for partition, payload in enumerate(cached.payloads):
            offset = writer.tell()
            writer.write(payload)
            entries.append(
                SegmentIndexEntry(
                    partition=partition,
                    offset=offset,
                    length=len(payload),
                    records=cached.records[partition],
                    raw_length=len(payload),
                    crc=zlib.crc32(payload),
                )
            )
    output_index = SpillIndex(path=path, entries=tuple(entries), codec=None)
    return MapTaskResult(
        task_id=task_id,
        split=split,
        output_index=output_index,
        disk=disk,
        ledger=Ledger(),
        counters=Counters(),
        pipeline=PipelineResult(),
    )


def delta_run_job(
    job: JobSpec, manifest: SplitManifest, host: str = "localhost"
) -> DeltaOutcome:
    """Run *job*, reusing cached map segments for unchanged splits.

    Mirrors :class:`~repro.engine.runner.LocalJobRunner` submit-time
    semantics (lint strict refusal, optimizer application, gating)
    before deciding eligibility, so the delta path and the fallback run
    exactly the job a full run would.
    """
    job, lint_report = lint_at_submit(job)
    executor = executor_for(job, host)
    eligible, reason = delta_eligibility(job, lint_report)
    if not eligible:
        result = executor.run(job)
        result.lint_report = lint_report
        result.counters.incr(Counter.STREAM_SPLITS_RECOMPUTED, len(result.map_results))
        return DeltaOutcome(
            result=result,
            eligible=False,
            recomputed=len(result.map_results),
            reason=reason,
        )

    base = job.input_format
    assert isinstance(base, TextInput)
    splits = base.splits()
    prefix = _job_key_base(job)
    keys = [split_content_key(job, base.data, split, prefix) for split in splits]

    # Rebuilt results carry no accounting (no work happened) and, in the
    # manifest, stay per split: the plan folds them per node only on the
    # way to the reducers.
    reuse: dict[int, MapTaskResult] = {}
    for index, key in enumerate(keys):
        cached = manifest.get(key)
        if cached is not None and cached.num_partitions == job.num_reducers:
            reuse[index] = _rebuild_map_result(job, index, splits[index], cached)

    result = executor.run(job, reuse=reuse)
    result.lint_report = lint_report

    # Only after a fully successful run do fresh segments enter the
    # manifest — a failed batch must leave it exactly as it was.
    changed = [index for index in range(len(splits)) if index not in reuse]
    for index in changed:
        fresh = result.map_results[index]
        payloads = [
            segment_payload(fresh.disk, fresh.output_index, partition)
            for partition in range(job.num_reducers)
        ]
        records = [
            fresh.output_index.entry(partition).records
            for partition in range(job.num_reducers)
        ]
        manifest.put(keys[index], payloads, records)

    result.counters.incr(Counter.STREAM_SPLITS_REUSED, len(reuse))
    result.counters.incr(Counter.STREAM_SPLITS_RECOMPUTED, len(changed))
    return DeltaOutcome(
        result=result,
        eligible=True,
        reused=len(reuse),
        recomputed=len(changed),
        split_keys=keys,
    )
