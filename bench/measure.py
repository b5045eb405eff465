"""What one benchmark child process does: set up, run jobs, measure.

A child is a fresh interpreter per workload, so ``peak_rss_mb`` and the
import and memo caches of one workload never leak into the next.  It
sets up (import, input generation, ``build_app``, one discarded warm-up
job whose output is checked against the app's oracle), then either runs
timed repetitions with tracing off, or a few pairs of an untraced and a
traced run for the per-layer numbers.
"""

from __future__ import annotations

import gc
import resource
from time import perf_counter


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped descendants
    (cluster daemons are forked per job and reaped before run() returns)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Attempts:
    """Counts job runs and the ones that failed: a run fails if it
    raises or any check on its result misses."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._failed_runs: set[int] = set()

    def run(self, label: str, fn):
        """Run *fn* as one attempt; returns its value, or None if it raised."""
        self.attempted += 1
        self._label = label
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed run is a counted outcome
            self.miss(f"raised {type(exc).__name__}: {exc}")
            return None

    def miss(self, why: str) -> None:
        """Record a failed check on the current attempt."""
        self._failed_runs.add(self.attempted)
        self.failures.append(f"{self._label}: {why}")

    @property
    def failed(self) -> int:
        return len(self._failed_runs)


def run_child(
    name: str, seed: int, scale_factor: float, seconds: float, reps: int, traced: bool
) -> dict:
    started = perf_counter()
    from repro.engine.runner import LocalJobRunner
    from layers import layer_metrics, traced_job
    from workloads import WORKLOADS, check_oracle

    workload = WORKLOADS[name]
    app = workload.build(seed, scale_factor)
    job = app.job
    attempts = Attempts()

    def timed_job():
        gc.collect()
        cpu = _cpu_seconds()
        start = perf_counter()
        result = LocalJobRunner().run(job)
        return result, perf_counter() - start, _cpu_seconds() - cpu

    warm = attempts.run("warm-up", timed_job)
    setup_s = perf_counter() - started
    if warm is None:
        return _report(name, attempts, setup_s=setup_s)
    reference = warm[0]
    digest = reference.output_digest()
    if not check_oracle(workload, app, reference):
        attempts.miss("output differs from the app's oracle")

    job_s: list[float] = []
    cpu_s: list[float] = []
    #: (overhead share, trace, result) of each traced run, taken right
    #: after the untraced repetition it is set against.
    traces: list[tuple] = []
    deadline = perf_counter() + seconds
    while len(job_s) < reps or perf_counter() < deadline:
        run = attempts.run(f"rep {len(job_s)}", timed_job)
        if run is None:
            break
        result, wall, cpu = run
        if result.output_digest() != digest:
            attempts.miss("output digest differs from the warm-up's")
        job_s.append(wall)
        cpu_s.append(cpu)
        del result, run  # a finished job's output must not count in the next one's RSS
        if traced:
            pair = traced_job(workload, job, reference, attempts)
            if pair is not None:
                traces.append((pair[0].job_s / wall - 1.0, *pair))

    traced_fields = {}
    if traces:
        # The pair with the median overhead stands for the traced run:
        # all its layers come from one run, so they add up.
        traces.sort(key=lambda pair: pair[0])
        overhead_share, trace, result = traces[len(traces) // 2]
        layers, spans = layer_metrics(job, trace, result, overhead_share)
        traced_fields = {"per_layer": layers, "spans": spans}

    from repro.engine.counters import Counter

    count = reference.counters.get
    return _report(
        name,
        attempts,
        setup_s=setup_s,
        job_s=job_s,
        cpu_s=cpu_s,
        peak_rss_mb=_peak_rss_mb(),
        digest=digest,
        shuffle_bytes=count(Counter.SHUFFLE_BYTES),
        sizes={
            "input_bytes": count(Counter.MAP_INPUT_BYTES),
            "input_records": count(Counter.MAP_INPUT_RECORDS),
            "map_output_records": count(Counter.MAP_OUTPUT_RECORDS),
            "spills": count(Counter.SPILLS),
            "splits": len(reference.map_results),
            "reducers": len(reference.reduce_results),
        },
        **traced_fields,
    )


def _report(name: str, attempts: Attempts, **fields) -> dict:
    return {
        "workload": name,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "failures": attempts.failures,
        **fields,
    }
