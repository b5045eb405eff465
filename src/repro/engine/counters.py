"""Job counters (Hadoop-style) — dataflow volume accounting.

Counters record *what happened* (records in/out, bytes spilled, spills
performed), as opposed to the :class:`~repro.engine.instrumentation.
Ledger`, which records *how much work it cost*.  Tests use counters to
assert dataflow invariants; analysis uses them to explain where the
optimizations removed data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


class Counter(str, Enum):
    """Well-known counters maintained by the engine."""

    MAP_INPUT_RECORDS = "map_input_records"
    MAP_INPUT_BYTES = "map_input_bytes"
    MAP_OUTPUT_RECORDS = "map_output_records"
    MAP_OUTPUT_BYTES = "map_output_bytes"
    COMBINE_INPUT_RECORDS = "combine_input_records"
    COMBINE_OUTPUT_RECORDS = "combine_output_records"
    SPILLED_RECORDS = "spilled_records"
    SPILLED_BYTES = "spilled_bytes"
    SPILLS = "spills"
    MERGED_RECORDS = "merged_records"
    MAP_FINAL_OUTPUT_RECORDS = "map_final_output_records"
    MAP_FINAL_OUTPUT_BYTES = "map_final_output_bytes"
    FREQBUF_HITS = "freqbuf_hits"
    FREQBUF_MISSES = "freqbuf_misses"
    FREQBUF_EVICTIONS = "freqbuf_evictions"
    FREQBUF_PROFILED_RECORDS = "freqbuf_profiled_records"
    SHUFFLE_BYTES = "shuffle_bytes"
    SHUFFLE_FETCHES = "shuffle_fetches"  # network shuffle: successful fetches
    # --- in-node combining before shuffle (repro.shuffle.node.combine) ---
    NODE_COMBINE_IN_RECORDS = "node_combine_in_records"  # records read from map outputs
    NODE_COMBINE_OUT_RECORDS = "node_combine_out_records"  # records after folding
    NODE_COMBINE_IN_BYTES = "node_combine_in_bytes"  # payload bytes entering the stage
    NODE_COMBINE_OUT_BYTES = "node_combine_out_bytes"  # payload bytes reducers now fetch
    NODE_COMBINE_FLUSHES = "node_combine_flushes"  # partial flushes forced by the hash cap
    NODE_COMBINE_HOSTS = "node_combine_hosts"  # node groups the stage folded
    SHUFFLE_FETCH_RETRIES = "shuffle_fetch_retries"  # failed attempts retried
    SHUFFLE_BACKOFF_MS = "shuffle_backoff_ms"  # total retry backoff + lost-attempt wait
    # --- fault tolerance (repro.faults + executor recovery) ---
    WORKER_CRASHES = "worker_crashes"  # worker daemons that died abruptly
    TASK_REEXECUTIONS = "task_reexecutions"  # attempts beyond each task's first
    TASK_TIMEOUTS = "task_timeouts"  # hung workers reaped by the task timeout
    TASKS_QUARANTINED = "tasks_quarantined"  # poison tasks pulled from scheduling
    DFS_READ_FAILOVERS = "dfs_read_failovers"  # block reads served by a later replica
    # --- cluster runtime (repro.cluster.runtime) ---
    WORKERS_LOST = "workers_lost"  # daemons declared dead (missed pings or EOF)
    DATA_LOCAL_MAPS = "data_local_maps"  # map dispatches placed on a replica host
    SPECULATIVE_LAUNCHES = "speculative_launches"  # backup attempts dispatched
    SPECULATIVE_WINS = "speculative_wins"  # backups that beat the original attempt
    REDUCE_INPUT_GROUPS = "reduce_input_groups"
    REDUCE_INPUT_RECORDS = "reduce_input_records"
    REDUCE_OUTPUT_RECORDS = "reduce_output_records"
    REDUCE_OUTPUT_BYTES = "reduce_output_bytes"


@dataclass
class Counters:
    """A bag of named monotone counters."""

    values: dict[Counter, int] = field(default_factory=dict)

    def incr(self, counter: Counter, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotone; got {counter} += {amount}")
        if amount:
            self.values[counter] = self.values.get(counter, 0) + amount

    def get(self, counter: Counter) -> int:
        return self.values.get(counter, 0)

    def merge(self, other: "Counters") -> "Counters":
        for counter, amount in other.values.items():
            self.values[counter] = self.values.get(counter, 0) + amount
        return self

    @classmethod
    def summed(cls, many: Iterable["Counters"]) -> "Counters":
        total = cls()
        for counters in many:
            total.merge(counters)
        return total

    def as_dict(self) -> dict[str, int]:
        return {counter.value: amount for counter, amount in self.values.items()}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{counter.value}={amount}" for counter, amount in sorted(self.values.items())
        )
        return f"Counters({parts})"
