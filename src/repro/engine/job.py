"""Job specification: everything needed to run one MapReduce job."""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Type

from .. import introspect
from ..config import JobConf, Keys
from ..serde.writable import Writable
from .api import Combiner, HashPartitioner, Mapper, Partitioner, Reducer
from .costmodel import DEFAULT_COST_MODEL, CostModel, UserCodeCosts
from .inputformat import InputFormat

#: Configuration namespaces that select *where and how* a job executes
#: (backend, shuffle transport, lint mode) without changing *what* it
#: computes.  They are excluded from job identity so a job keeps the
#: same ``job_id`` no matter which substrate runs it.
NON_SEMANTIC_CONF_PREFIXES: tuple[str, ...] = (
    "repro.exec.",
    "repro.shuffle.",
    "repro.lint.",
    "repro.instrument.",
    # Fault injection and the retry/timeout budget change how hard a run
    # is to finish, never what a finished run computes (recovered runs
    # are byte-identical by contract — the chaos suite enforces it).
    "repro.faults.",
    "repro.task.",
    # The cluster runtime's topology and speculation knobs move work
    # between daemons; recovered/speculated runs stay byte-identical.
    "repro.cluster.",
)


def semantic_conf_items(conf: JobConf) -> list[tuple[str, str]]:
    """The (key, value-repr) pairs that participate in job identity."""
    return sorted(
        (key, repr(value))
        for key, value in conf.items()
        if not key.startswith(NON_SEMANTIC_CONF_PREFIXES)
    )


def source_fingerprint(obj: Any) -> str:
    """A stable fingerprint of a callable/class: its source text when
    retrievable, else its qualified name.  Classes and functions edited
    between runs fingerprint differently — the property
    :meth:`JobSpec.job_id` relies on."""
    if obj is None:
        return "-"
    if isinstance(obj, functools.partial):
        # A bare ``type(partial)`` fingerprint would collapse every
        # partial to "functools.partial", letting two jobs whose only
        # difference is the bound arguments share a source digest.  Fingerprint the wrapped
        # callable plus the bound arguments instead.
        bound = ", ".join(
            [repr(a) for a in obj.args]
            + [f"{k}={v!r}" for k, v in sorted(obj.keywords.items())]
        )
        return f"functools.partial({bound})\n{source_fingerprint(obj.func)}"
    target = obj if inspect.isclass(obj) or inspect.isroutine(obj) else type(obj)
    name = f"{getattr(target, '__module__', '?')}.{getattr(target, '__qualname__', repr(target))}"
    try:
        return f"{name}\n{introspect.getsource(target)}"
    except (OSError, TypeError):
        return name

GroupKeyFn = Callable[[bytes], bytes]
"""Grouping comparator for secondary sort: maps a serialized map-output
key to the *grouping* prefix reduce() batches on.  Records stay sorted
by the full key, so within one reduce() call the values arrive in
full-key order — Hadoop's secondary-sort pattern.  The job's
partitioner must route by the same prefix (all keys of a group to one
reducer), which the engine validates at runtime."""


@dataclass
class JobSpec:
    """A complete, immutable description of one MapReduce job.

    Factories (not instances) for mapper/reducer/combiner keep tasks
    independent: each task builds its own user-code objects, exactly as
    each Hadoop task JVM does.
    """

    name: str
    input_format: InputFormat
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    map_output_key_cls: Type[Writable]
    map_output_value_cls: Type[Writable]
    combiner_factory: Callable[[], Combiner] | None = None
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    conf: JobConf = field(default_factory=JobConf)
    user_costs: UserCodeCosts = field(default_factory=UserCodeCosts)
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: Secondary sort: group reduce() calls by a prefix of the sorted key.
    group_key_fn: GroupKeyFn | None = None

    @property
    def num_reducers(self) -> int:
        return self.conf.get_positive_int(Keys.NUM_REDUCERS)

    def source_digest(self) -> str:
        """SHA-256 over the *user code* of this job: mapper, reducer,
        combiner, partitioner, and grouping function sources.  Two jobs
        with the same digest run the same computation per record."""
        digest = hashlib.sha256()
        for part in (
            self.mapper_factory,
            self.reducer_factory,
            self.combiner_factory,
            self.partitioner,
            self.group_key_fn,
            self.map_output_key_cls,
            self.map_output_value_cls,
        ):
            digest.update(source_fingerprint(part).encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def job_id(self) -> str:
        """A deterministic short identifier for this exact job.

        Stable across runs and across execution backends: derived from
        the job name, the input shape (path, size, split count), the
        user-code source digest, and the semantic configuration —
        never from wall clock, PIDs, or backend choice.
        """
        digest = hashlib.sha256()
        splits = self.input_format.splits()
        digest.update(self.name.encode("utf-8"))
        digest.update(
            f"|{splits[0].path if splits else '?'}|{self.input_format.total_bytes()}"
            f"|{len(splits)}|".encode("utf-8")
        )
        digest.update(self.source_digest().encode("ascii"))
        for key, value in semantic_conf_items(self.conf):
            digest.update(f"{key}={value};".encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        opts = []
        if self.conf.get_bool(Keys.FREQBUF_ENABLED):
            opts.append("freqbuf")
        if self.conf.get_bool(Keys.SPILLMATCHER_ENABLED):
            opts.append("spillmatcher")
        suffix = f" [{', '.join(opts)}]" if opts else " [baseline]"
        return f"{self.name}{suffix}"
