"""Outside-in tracing: timing proxies around a job's public seams.

A traced run is the ordinary job with four fields of its ``JobSpec``
replaced by proxies — input format, mapper, combiner and reducer
factories — and run through the ordinary ``LocalJobRunner``.  The
proxies bracket ``record_reader``'s ``next()``, ``Mapper.map``, the
``emit`` callable handed to ``map()`` (which *is* the collector's
``collect``), ``Combiner.combine`` and ``Reducer.reduce`` with
``perf_counter`` and know how the seams nest, so a layer's self time is
its span minus the spans it encloses:

    map()  ⊃  emit()  ⊃  combine()          (collect-time combining)
    map task  ⊃  combine() outside emit()   (spill at flush, final merge)

Nothing under ``src/`` is touched; what happens *between* the seams
(sort vs spill-write vs merge inside the collector) is not split here.

Tasks run one at a time on the serial backend, so "the current map task"
is simply the one whose mapper was built last.  A combiner is built
just before its task's mapper (``build_collector`` runs first); one that
is never followed by a mapper belongs to the node-combine stage.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter


class MapProbe:
    """Accumulated seam times of one map task (seconds, inclusive)."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.ended = started
        self.read_s = 0.0
        self.read_calls = 0
        self.map_s = 0.0
        self.map_calls = 0
        self.emit_s = 0.0
        self.emit_calls = 0
        self.combine_in_emit_s = 0.0
        self.combine_in_flush_s = 0.0
        self.combine_calls = 0
        self.in_emit = False


class CallProbe:
    """Accumulated time of one bracketed call site (reduce(), or the
    node-combine stage's combine())."""

    def __init__(self) -> None:
        self.started = 0.0
        self.ended = 0.0
        self.busy_s = 0.0
        self.calls = 0

    def add(self, start: float, end: float) -> None:
        if not self.calls:
            self.started = start
        self.ended = end
        self.busy_s += end - start
        self.calls += 1


class _TracedInput:
    def __init__(self, inner, trace: "JobTrace") -> None:
        self._inner = inner
        self._trace = trace

    def splits(self):
        return self._inner.splits()

    def total_bytes(self):
        return self._inner.total_bytes()

    def record_reader(self, split):
        probe = self._trace.map_probes[-1]
        records = iter(self._inner.record_reader(split))
        while True:
            start = perf_counter()
            try:
                record = next(records)
            except StopIteration:
                probe.read_s += perf_counter() - start
                return
            probe.read_s += perf_counter() - start
            probe.read_calls += 1
            yield record


class _TracedMapper:
    def __init__(self, inner, probe: MapProbe) -> None:
        self._inner = inner
        self._probe = probe
        self._emit = None
        self._traced_emit = None

    def setup(self) -> None:
        self._inner.setup()

    def _wrap(self, emit):
        # The task hands the same collect() to every map() call.
        if emit is not self._emit:
            probe = self._probe

            def traced_emit(key, value):
                start = perf_counter()
                probe.in_emit = True
                emit(key, value)
                probe.in_emit = False
                probe.emit_s += perf_counter() - start
                probe.emit_calls += 1

            self._emit = emit
            self._traced_emit = traced_emit
        return self._traced_emit

    def map(self, key, value, emit) -> None:
        probe = self._probe
        traced_emit = self._wrap(emit)
        start = perf_counter()
        self._inner.map(key, value, traced_emit)
        probe.ended = perf_counter()
        probe.map_s += probe.ended - start
        probe.map_calls += 1

    def cleanup(self, emit) -> None:
        self._inner.cleanup(self._wrap(emit))


class _TracedCombiner:
    def __init__(self, inner, trace: "JobTrace") -> None:
        self._inner = inner
        self._trace = trace
        #: Set when a mapper is built right after this combiner.
        self.map_probe: MapProbe | None = None

    def combine(self, key, values, emit) -> None:
        start = perf_counter()
        self._inner.combine(key, values, emit)
        end = perf_counter()
        probe = self.map_probe
        if probe is None:
            self._trace.node_combine.add(start, end)
            return
        if probe.in_emit:
            probe.combine_in_emit_s += end - start
        else:
            probe.combine_in_flush_s += end - start
        probe.combine_calls += 1
        probe.ended = end


class _TracedReducer:
    def __init__(self, inner, probe: CallProbe) -> None:
        self._inner = inner
        self._probe = probe

    def setup(self) -> None:
        self._inner.setup()

    def reduce(self, key, values, emit) -> None:
        start = perf_counter()
        self._inner.reduce(key, values, emit)
        self._probe.add(start, perf_counter())

    def cleanup(self, emit) -> None:
        self._inner.cleanup(emit)


class JobTrace:
    """The probes of one traced job run, in task order."""

    def __init__(self) -> None:
        self.map_probes: list[MapProbe] = []
        self.reduce_probes: list[CallProbe] = []
        self.node_combine = CallProbe()
        self.job_started = 0.0
        self.job_s = 0.0
        self._unclaimed_combiner: _TracedCombiner | None = None

    def wrap(self, job):
        """*job* with its four user-code seams replaced by proxies."""
        mapper_factory = job.mapper_factory
        reducer_factory = job.reducer_factory
        combiner_factory = job.combiner_factory

        def traced_mapper():
            probe = MapProbe(perf_counter())
            self.map_probes.append(probe)
            if self._unclaimed_combiner is not None:
                self._unclaimed_combiner.map_probe = probe
                self._unclaimed_combiner = None
            return _TracedMapper(mapper_factory(), probe)

        def traced_combiner():
            self._unclaimed_combiner = _TracedCombiner(combiner_factory(), self)
            return self._unclaimed_combiner

        def traced_reducer():
            probe = CallProbe()
            self.reduce_probes.append(probe)
            return _TracedReducer(reducer_factory(), probe)

        return dataclasses.replace(
            job,
            input_format=_TracedInput(job.input_format, self),
            mapper_factory=traced_mapper,
            reducer_factory=traced_reducer,
            combiner_factory=traced_combiner if combiner_factory is not None else None,
        )

    def run(self, runner, job, proxies: bool = True):
        """Run *job* as the job span, behind the proxies unless its tasks
        run out of their reach; returns its ``JobResult``."""
        if proxies:
            job = self.wrap(job)
        self.job_started = perf_counter()
        result = runner.run(job)
        self.job_s = perf_counter() - self.job_started
        return result

    # ------------------------------------------------------------------
    def layer_seconds(self, result) -> dict[str, float]:
        """Self seconds per layer, summed over the job's tasks (all zero
        for a run without proxies)."""
        maps = self.map_probes
        read_s = sum(p.read_s for p in maps)
        map_s = sum(p.map_s for p in maps)
        emit_s = sum(p.emit_s for p in maps)
        in_emit = sum(p.combine_in_emit_s for p in maps)
        in_flush = sum(p.combine_in_flush_s for p in maps)
        reduce_s = sum(p.busy_s for p in self.reduce_probes)
        map_wall = sum(task.wall_seconds for task in result.map_results) if maps else 0.0
        reduce_wall = (
            sum(task.wall_seconds for task in result.reduce_results)
            if self.reduce_probes else 0.0
        )
        return {
            "inputformat.read_s": read_s,
            "apps.map_s": map_s - emit_s,
            "apps.combine_s": in_emit + in_flush,
            "apps.reduce_s": reduce_s,
            "collector.collect_s": emit_s - in_emit,
            # What is left of the map tasks after read, map() and the
            # combine() calls outside emit(): last spill + final merge.
            "collector.flush_s": map_wall - read_s - map_s - in_flush,
            # Fetch + merge + group + deserialize + output.
            "reducetask.framework_s": reduce_wall - reduce_s,
        }

    def spans(self, result) -> list[dict]:
        """One record per (task, layer): name, first start and last end
        (seconds since the job span began), busy and self seconds, call
        count, parent span and root span.  Task boundaries are not
        visible from the seams, so a task span is placed by its first
        (map) or last (reduce) seam event and sized by the result's own
        ``wall_seconds``."""
        origin = self.job_started
        out: list[dict] = []

        def span(name, task, parent, start, end, busy, self_s, calls):
            out.append({
                "name": name, "task": task, "parent": parent, "root": "job",
                "first_start_s": start - origin, "last_end_s": end - origin,
                "busy_s": busy, "self_s": self_s, "calls": calls,
            })

        span("job", "job", None, origin, origin + self.job_s, self.job_s, None, 1)
        for p, task in zip(self.map_probes, result.map_results):
            tid, wall = task.task_id, task.wall_seconds
            combine_s = p.combine_in_emit_s + p.combine_in_flush_s
            span("maptask", tid, "job", p.started, p.started + wall, wall, None, 1)
            span("inputformat.read", tid, "maptask", p.started, p.ended,
                 p.read_s, p.read_s, p.read_calls)
            span("apps.map", tid, "maptask", p.started, p.ended,
                 p.map_s, p.map_s - p.emit_s, p.map_calls)
            span("collector.collect", tid, "apps.map", p.started, p.ended,
                 p.emit_s, p.emit_s - p.combine_in_emit_s, p.emit_calls)
            span("apps.combine", tid, "maptask", p.started, p.ended,
                 combine_s, combine_s, p.combine_calls)
        for p, task in zip(self.reduce_probes, result.reduce_results):
            tid, wall = task.task_id, task.wall_seconds
            span("reducetask", tid, "job", p.ended - wall, p.ended, wall, None, 1)
            span("apps.reduce", tid, "reducetask", p.started, p.ended,
                 p.busy_s, p.busy_s, p.calls)
        if self.node_combine.calls:
            p = self.node_combine
            span("nodecombine.combine", "nodecombine", "job", p.started, p.ended,
                 p.busy_s, p.busy_s, p.calls)
        return out
