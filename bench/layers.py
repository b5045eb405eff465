"""The traced run and the per-layer metrics read from it.

Layer = module name.  ``*_s`` metrics are seconds summed over the job
(self time from the timing proxies, or ``wall_seconds`` the results
carry); everything else is an exact count read from the ``JobResult``.
"""

from __future__ import annotations

from time import perf_counter

from repro.analysis.idle import aggregate_idle
from repro.config import Keys
from repro.engine.counters import Counter
from repro.engine.instrumentation import Op
from repro.engine.runner import LocalJobRunner
from repro.shuffle.nodecombine import NodeCombiner

from tracing import JobTrace


def traced_job(workload, job, reference, attempts):
    """Run *job* once behind the timing proxies (in-process workloads).
    The traced run must be the same program: its digest, counters and
    ledger equal *reference*'s, or the attempt counts as failed.
    Returns ``(trace, result)``, or None if the run raised."""
    trace = JobTrace()
    # Tasks of the cluster workload run in forked daemons, out of the
    # proxies' reach: that trace carries result-level spans only.
    result = attempts.run(
        "traced", lambda: trace.run(LocalJobRunner(), job, proxies=workload.in_process)
    )
    if result is None:
        return None
    for what, miss in same_program(workload, reference, result):
        attempts.miss(f"{what} differs from the untraced run's: {miss}")
    for name, value in trace.layer_seconds(result).items():
        if value < 0:
            attempts.miss(f"negative self time {name} = {value}")
    return trace, result


def layer_metrics(job, trace, result, overhead_share: float):
    """Every per-layer metric of one traced run, and its span records."""
    seconds = trace.layer_seconds(result)
    fold_s = 0.0
    if job.conf.get_bool(Keys.NODE_COMBINE):
        start = perf_counter()
        NodeCombiner(job).combine_host("localhost", result.map_results)
        fold_s = perf_counter() - start

    count = result.counters.get
    map_wall = sum(task.wall_seconds for task in result.map_results)
    reduce_wall = sum(task.wall_seconds for task in result.reduce_results)
    hits, misses = count(Counter.FREQBUF_HITS), count(Counter.FREQBUF_MISSES)
    idle = aggregate_idle(result.pipeline_results())
    hosts = result.shuffle_hosts

    metrics = dict(seconds)
    metrics.update({
        "inputformat.records": count(Counter.MAP_INPUT_RECORDS),
        "inputformat.bytes": count(Counter.MAP_INPUT_BYTES),
        "collector.map_output_records": count(Counter.MAP_OUTPUT_RECORDS),
        "collector.spills": count(Counter.SPILLS),
        "collector.spilled_bytes": count(Counter.SPILLED_BYTES),
        "collector.combine_in_records": count(Counter.COMBINE_INPUT_RECORDS),
        "collector.combine_out_records": count(Counter.COMBINE_OUTPUT_RECORDS),
        "collector.merged_records": count(Counter.MERGED_RECORDS),
        "collector.final_output_bytes": count(Counter.MAP_FINAL_OUTPUT_BYTES),
        "freqbuf.hits": hits,
        "freqbuf.misses": misses,
        "freqbuf.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "freqbuf.profiled_records": count(Counter.FREQBUF_PROFILED_RECORDS),
        "spillmatcher.map_idle_share": idle.map_idle_pct / 100.0,
        "spillmatcher.support_idle_share": idle.support_idle_pct / 100.0,
        "maptask.wall_s": map_wall,
        "reducetask.wall_s": reduce_wall,
        "reducetask.input_records": count(Counter.REDUCE_INPUT_RECORDS),
        "reducetask.input_groups": count(Counter.REDUCE_INPUT_GROUPS),
        "reducetask.output_bytes": count(Counter.REDUCE_OUTPUT_BYTES),
        "nodecombine.fold_s": fold_s,
        "nodecombine.in_records": count(Counter.NODE_COMBINE_IN_RECORDS),
        "nodecombine.out_records": count(Counter.NODE_COMBINE_OUT_RECORDS),
        "nodecombine.out_bytes": count(Counter.NODE_COMBINE_OUT_BYTES),
        "nodecombine.flushes": count(Counter.NODE_COMBINE_FLUSHES),
        "shuffle.fetches": count(Counter.SHUFFLE_FETCHES),
        "shuffle.fetch_retries": sum(t.fetch_retries for t in result.reduce_results),
        "shuffle.fetch_wait_s": sum(t.fetch_wait_seconds for t in result.reduce_results),
        "shuffle.server_bytes_served": sum(h.bytes_served for h in hosts),
        "shuffle.server_requests": sum(h.requests_served for h in hosts),
        "shuffle.server_errors": sum(h.errors for h in hosts),
        "exec.task_busy_s": map_wall + reduce_wall,
        "exec.overhead_s": trace.job_s - map_wall - reduce_wall - fold_s,
        "exec.task_attempts": sum(result.task_attempts.values()),
        "exec.task_reexecutions": count(Counter.TASK_REEXECUTIONS),
        "cluster.data_local_maps": count(Counter.DATA_LOCAL_MAPS),
        "cluster.speculative_launches": count(Counter.SPECULATIVE_LAUNCHES),
        "cluster.workers_lost": count(Counter.WORKERS_LOST),
        "ledger.total_units": result.ledger.total(),
        "trace.overhead_share": overhead_share,
    })
    for op in Op:
        metrics[f"ledger.{op.value}_units"] = result.ledger.get(op)
    return metrics, trace.spans(result)


def same_program(workload, reference, result):
    """Yield ``(what, detail)`` for each way *result* is not the run
    *reference* was: a proxy that changes the program measures a
    different program."""
    if result.output_digest() != reference.output_digest():
        yield "digest", result.output_digest()
    want, got = reference.counters.as_dict(), result.counters.as_dict()
    if want != got:
        yield "counters", _diff(want, got)
    want, got = reference.ledger.as_dict(), result.ledger.as_dict()
    if workload.net_shuffle:
        # Charged from measured fetch time on real sockets.
        want.pop(Op.SHUFFLE.value, None)
        got.pop(Op.SHUFFLE.value, None)
    if want != got:
        yield "ledger", _diff(want, got)


def _diff(want: dict, got: dict) -> str:
    return ", ".join(
        f"{key}: {want.get(key)} != {got.get(key)}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    )
