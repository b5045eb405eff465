"""Extraction of a job's user classes for analysis.

:class:`JobTarget` is what the rules see: the mapper/reducer/combiner
*classes* behind the job's factories, each resolved to parsed source
where possible.  Factories are Hadoop-style (each task attempt calls
them), so probing one instance here is cheap and side-effect-free by
the same contract the engine already relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..engine.api import FnCombiner, FnMapper, FnReducer
from ..engine.job import JobSpec
from .source import ClassSource, class_source

#: The Fn* adapters wrap plain functions; analyzing the adapter's own
#: generic source would say nothing about the wrapped function, so they
#: are reported as unanalyzable rather than guessed at.
_ADAPTERS = (FnMapper, FnReducer, FnCombiner)


@dataclass
class UserClass:
    """One user-code class (mapper, reducer, or combiner) under analysis."""

    role: str  # "mapper" | "reducer" | "combiner"
    cls: type | None  # None: factory itself failed
    source: ClassSource | None  # None: source unresolvable / adapter

    @property
    def analyzable(self) -> bool:
        return self.source is not None


@dataclass
class JobTarget:
    """Everything the job rules inspect."""

    job: JobSpec
    mapper: UserClass
    reducer: UserClass
    combiner: UserClass | None  # None: job declares no combiner
    notes: list[str] = field(default_factory=list)

    def user_classes(self) -> list[UserClass]:
        present = [self.mapper, self.reducer]
        if self.combiner is not None:
            present.append(self.combiner)
        return present


def _resolve_class(factory: Callable, role: str, notes: list[str]) -> UserClass:
    if isinstance(factory, type):
        cls: type | None = factory
    else:
        # A lambda/closure factory (fine on every backend: the cluster
        # backend forks, so factories never cross a pickle boundary).
        # Probe one instance to learn the concrete class.
        try:
            cls = type(factory())
        except Exception as exc:  # noqa: BLE001 - user code boundary
            notes.append(f"{role}: factory raised {exc!r}; not analyzed")
            return UserClass(role=role, cls=None, source=None)
    if issubclass(cls, _ADAPTERS):
        notes.append(
            f"{role}: {cls.__name__} adapter wraps a plain function; "
            "cannot verify statically"
        )
        return UserClass(role=role, cls=cls, source=None)
    source = class_source(cls)
    if source is None:
        notes.append(f"{role}: source for {cls.__name__} unavailable; cannot verify")
    return UserClass(role=role, cls=cls, source=source)


def resolve_target(job: JobSpec) -> JobTarget:
    """Resolve a job's factories into analyzable user classes."""
    notes: list[str] = []
    mapper = _resolve_class(job.mapper_factory, "mapper", notes)
    reducer = _resolve_class(job.reducer_factory, "reducer", notes)
    combiner = (
        _resolve_class(job.combiner_factory, "combiner", notes)
        if job.combiner_factory is not None
        else None
    )
    return JobTarget(job=job, mapper=mapper, reducer=reducer, combiner=combiner, notes=notes)
