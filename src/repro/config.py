"""Hadoop-style typed job configuration.

A :class:`JobConf` is a flat string-keyed dictionary with typed accessors,
default values, and validation, mirroring Hadoop's ``Configuration`` /
``JobConf`` objects.  Every tunable in the framework — spill buffer size,
spill percentage, frequency-buffering parameters, cost-model constants —
is reachable through a :class:`JobConf` so experiments can sweep them
without touching code.

The well-known keys used by the engine are collected in :class:`Keys`
with their defaults in :data:`DEFAULTS`.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from .errors import ConfigError


class Keys:
    """Well-known configuration keys (Hadoop-flavoured dotted names)."""

    # --- map-side buffering (Hadoop: io.sort.mb / io.sort.spill.percent) ---
    SPILL_BUFFER_BYTES = "repro.io.sort.buffer.bytes"
    SPILL_PERCENT = "repro.io.sort.spill.percent"
    SORT_FACTOR = "repro.io.sort.factor"  # max streams merged at once

    # --- frequency-buffering (the paper's Section III) ---
    FREQBUF_ENABLED = "repro.freqbuf.enabled"
    FREQBUF_K = "repro.freqbuf.k"  # number of frequent keys tracked
    FREQBUF_SAMPLE_FRACTION = "repro.freqbuf.sample.fraction"  # s
    FREQBUF_AUTOTUNE = "repro.freqbuf.autotune"  # derive s from Zipf fit
    FREQBUF_BUFFER_FRACTION = "repro.freqbuf.buffer.fraction"  # share of spill buffer
    FREQBUF_SHARE_ACROSS_TASKS = "repro.freqbuf.share.across.tasks"

    # --- spill-matcher (the paper's Section IV) ---
    SPILLMATCHER_ENABLED = "repro.spillmatcher.enabled"

    # --- execution backend (repro.exec) ---
    EXEC_BACKEND = "repro.exec.backend"  # serial | cluster
    EXEC_WORKERS = "repro.exec.workers"  # worker count (0 = one per CPU)

    # --- network shuffle (repro.shuffle) ---
    SHUFFLE_MODE = "repro.shuffle.mode"  # mem (direct reads) | net (real sockets)
    SHUFFLE_FETCHERS = "repro.shuffle.fetchers"  # parallel fetcher threads per reduce
    SHUFFLE_FETCH_ATTEMPTS = "repro.shuffle.fetch.max.attempts"  # per segment
    SHUFFLE_BACKOFF_BASE = "repro.shuffle.backoff.base.seconds"
    SHUFFLE_BACKOFF_MAX = "repro.shuffle.backoff.max.seconds"
    # --- in-node combining before shuffle (arXiv 1511.04861) ---
    NODE_COMBINE = "repro.shuffle.node.combine"  # fold map outputs per node pre-fetch
    NODE_COMBINE_BUFFER_BYTES = "repro.shuffle.node.combine.buffer.bytes"  # hash cap

    # --- unified fault injection (repro.faults) ---
    FAULTS_SPEC = "repro.faults.spec"  # "site.kind:fraction[:attempts][;...]"
    FAULTS_SEED = "repro.faults.seed"  # victim-selection hash seed
    FAULTS_DELAY = "repro.faults.delay.seconds"  # stall/delay duration

    # --- static job-safety analysis (repro.lint) ---
    LINT_MODE = "repro.lint.mode"  # off | warn | strict

    # --- engine ---
    NUM_REDUCERS = "repro.job.reduces"
    EXACT_COMPARISON_COUNTING = "repro.instrument.exact.comparisons"
    SPILL_COMPRESSION = "repro.io.spill.compression"  # identity|zlib|rle+zlib
    REDUCE_MEMORY_BYTES = "repro.reduce.shuffle.memory.bytes"  # merge budget
    TASK_MAX_ATTEMPTS = "repro.task.max.attempts"  # retries for failed tasks
    TASK_TIMEOUT = "repro.task.timeout.seconds"  # reap hung workers (0 = off)

    # --- DFS ---
    DFS_REPLICATION = "repro.dfs.replication"

    # --- cluster runtime (repro.cluster.runtime) ---
    CLUSTER_HEARTBEAT_INTERVAL = "repro.cluster.heartbeat.interval.seconds"
    CLUSTER_SPECULATION = "repro.cluster.speculation.enabled"
    CLUSTER_SPEC_QUORUM = "repro.cluster.speculation.quorum.fraction"
    CLUSTER_SPEC_SLOWDOWN = "repro.cluster.speculation.slowdown.threshold"
    CLUSTER_SPEC_MAX_BACKUPS = "repro.cluster.speculation.max.backups"
    CLUSTER_SPEC_MIN_SECONDS = "repro.cluster.speculation.min.task.seconds"


DEFAULTS: dict[str, Any] = {
    Keys.SPILL_BUFFER_BYTES: 1 << 20,  # 1 MiB (scaled-down io.sort.mb=100)
    Keys.SPILL_PERCENT: 0.8,  # Hadoop default, as stated in Section V-C
    Keys.SORT_FACTOR: 10,
    Keys.NODE_COMBINE: False,
    Keys.NODE_COMBINE_BUFFER_BYTES: 1 << 20,  # bounded per-node hash budget
    Keys.FREQBUF_ENABLED: False,
    Keys.FREQBUF_K: 3000,
    Keys.FREQBUF_SAMPLE_FRACTION: 0.01,
    Keys.FREQBUF_AUTOTUNE: False,
    Keys.FREQBUF_BUFFER_FRACTION: 0.3,  # Section V-B2: 30% of spill buffer
    Keys.FREQBUF_SHARE_ACROSS_TASKS: True,
    Keys.EXEC_BACKEND: "serial",
    Keys.EXEC_WORKERS: 0,
    Keys.SHUFFLE_MODE: "mem",
    Keys.SHUFFLE_FETCHERS: 4,
    Keys.SHUFFLE_FETCH_ATTEMPTS: 4,
    Keys.SHUFFLE_BACKOFF_BASE: 0.02,
    Keys.SHUFFLE_BACKOFF_MAX: 0.25,
    Keys.FAULTS_SPEC: "",
    Keys.FAULTS_SEED: 1234,
    Keys.FAULTS_DELAY: 0.05,
    Keys.LINT_MODE: "off",
    Keys.SPILLMATCHER_ENABLED: False,
    Keys.NUM_REDUCERS: 1,
    Keys.EXACT_COMPARISON_COUNTING: False,
    Keys.SPILL_COMPRESSION: "identity",
    Keys.REDUCE_MEMORY_BYTES: 64 << 20,  # 64 MiB: in-memory merge by default
    Keys.TASK_MAX_ATTEMPTS: 4,  # Hadoop's mapred.map.max.attempts default
    Keys.TASK_TIMEOUT: 0.0,  # Hadoop's mapred.task.timeout, scaled; 0 disables
    Keys.DFS_REPLICATION: 3,
    Keys.CLUSTER_HEARTBEAT_INTERVAL: 0.1,
    Keys.CLUSTER_SPECULATION: True,
    Keys.CLUSTER_SPEC_QUORUM: 0.5,  # phase progress before speculating
    Keys.CLUSTER_SPEC_SLOWDOWN: 1.5,  # x median duration = straggler
    Keys.CLUSTER_SPEC_MAX_BACKUPS: 4,
    # Real clocks are noisy at test scale: never call a task a straggler
    # before it has run at least this long (the simulator, whose clock is
    # exact, keeps this at 0 via its own policy default).
    Keys.CLUSTER_SPEC_MIN_SECONDS: 0.5,
}


class JobConf:
    """A typed, validating configuration map.

    Values are stored as-is; typed getters coerce and validate.  Unknown
    keys are allowed (applications may stash their own parameters), but
    getters raise :class:`~repro.errors.ConfigError` on type mismatches
    rather than silently mis-parsing.

    Example
    -------
    >>> conf = JobConf({Keys.SPILL_PERCENT: 0.5})
    >>> conf.get_float(Keys.SPILL_PERCENT)
    0.5
    >>> conf.get_int(Keys.SORT_FACTOR)  # falls back to DEFAULTS
    10
    """

    def __init__(self, values: Mapping[str, Any] | None = None) -> None:
        self._values: dict[str, Any] = dict(DEFAULTS)
        if values:
            for key, value in values.items():
                self.set(key, value)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> "JobConf":
        if not isinstance(key, str) or not key:
            raise ConfigError(f"configuration key must be a non-empty string, got {key!r}")
        self._values[key] = value
        return self

    def update(self, values: Mapping[str, Any]) -> "JobConf":
        for key, value in values.items():
            self.set(key, value)
        return self

    def copy(self) -> "JobConf":
        clone = JobConf()
        clone._values = dict(self._values)
        return clone

    # ------------------------------------------------------------------
    # typed access
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def get_int(self, key: str, default: int | None = None) -> int:
        value = self._lookup(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            try:
                coerced = int(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}={value!r} is not an integer") from exc
            if isinstance(value, float) and coerced != value:
                raise ConfigError(f"{key}={value!r} is not an integer")
            return coerced
        return value

    def get_float(self, key: str, default: float | None = None) -> float:
        value = self._lookup(key, default)
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}={value!r} is not a number") from exc

    def get_bool(self, key: str, default: bool | None = None) -> bool:
        value = self._lookup(key, default)
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
        raise ConfigError(f"{key}={value!r} is not a boolean")

    def get_str(self, key: str, default: str | None = None) -> str:
        value = self._lookup(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"{key}={value!r} is not a string")
        return value

    def get_fraction(self, key: str, default: float | None = None) -> float:
        """A float constrained to the closed interval [0, 1]."""
        value = self.get_float(key, default)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{key}={value!r} must lie in [0, 1]")
        return value

    def get_positive_int(self, key: str, default: int | None = None) -> int:
        value = self.get_int(key, default)
        if value <= 0:
            raise ConfigError(f"{key}={value!r} must be positive")
        return value

    # ------------------------------------------------------------------
    # mapping protocol bits
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def items(self) -> Iterator[tuple[str, Any]]:
        return iter(self._values.items())

    def as_dict(self) -> dict[str, Any]:
        return dict(self._values)

    def __repr__(self) -> str:
        overrides = {
            k: v for k, v in self._values.items() if DEFAULTS.get(k, object()) != v
        }
        return f"JobConf({overrides!r})"

    # ------------------------------------------------------------------
    def _lookup(self, key: str, default: Any) -> Any:
        if key in self._values:
            return self._values[key]
        if default is not None:
            return default
        raise ConfigError(f"missing configuration key {key!r} and no default given")
