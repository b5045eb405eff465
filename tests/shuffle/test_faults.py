"""Fault injection: every failure mode retries, none of them hang.

Each injected fault exercises one leg of the fetcher's retry loop —
connection refused (``ERR BUSY``), mid-stream EOF (``drop``), CRC
mismatch (``truncate``), slow peer (``delay`` past the client timeout).
Because fault selection is a stable hash and only the first
``attempts`` requests per selected segment are faulted, every test is
deterministic: retries are *bounded* and the job always completes —
or, when the fault outlives the retry budget, fails with a clean
:class:`~repro.errors.ShuffleError` rather than a hang.
"""

from __future__ import annotations

import pytest

from repro.config import JobConf, Keys
from repro.engine.counters import Counter
from repro.engine.runner import LocalJobRunner
from repro.errors import ConfigError, ShuffleError
from repro.experiments.common import build_app
from repro.faults.plan import ENV_OVERRIDE, FaultPlan
from repro.faults.runtime import installed, shuffle_fault
from repro.io.blockdisk import LocalDisk
from repro.io.spillfile import write_spill
from repro.shuffle.fetcher import FetchPlanEntry, RetryPolicy, fetch_segment
from repro.shuffle.server import ShuffleServer


class TestFaultPlan:
    def test_the_unified_spec_is_the_only_source(self):
        """The shuffle fault point reads the installed plan's
        ``shuffle.*`` rule, with the plan's seed and delay, and fires
        for nothing else that plan arms."""
        conf = JobConf({Keys.FAULTS_SPEC: "disk.corrupt:0.5;shuffle.delay:1.0:3",
                        Keys.FAULTS_SEED: 7, Keys.FAULTS_DELAY: 0.01})
        with installed(FaultPlan.from_conf(conf)) as injector:
            kinds = [shuffle_fault("job.m0000", 0) for _ in range(4)]
        assert kinds == ["delay"] * 3 + [None]  # three attempts, then clean
        assert injector.injected == {"shuffle.delay": 3}
        # No shuffle rule, no shuffle faults — whatever else is armed.
        with installed(FaultPlan.parse("disk.corrupt:1.0")):
            assert shuffle_fault("job.m0000", 0) is None
        assert shuffle_fault("job.m0000", 0) is None  # nothing installed

    def test_env_override_malformed(self, monkeypatch):
        monkeypatch.setenv(ENV_OVERRIDE, "shuffle.truncate")
        with pytest.raises(ConfigError, match="site.kind:fraction"):
            FaultPlan.from_conf(JobConf())
        monkeypatch.setenv(ENV_OVERRIDE, "shuffle.truncate:lots")
        with pytest.raises(ConfigError, match="malformed"):
            FaultPlan.from_conf(JobConf())


# ----------------------------------------------------------------------
# one segment, one injected fault kind, direct fetch
# ----------------------------------------------------------------------

FAST = RetryPolicy(
    max_attempts=4, backoff_base_seconds=0.005, backoff_max_seconds=0.02,
    timeout_seconds=5.0,
)


def serve_one_segment() -> tuple[ShuffleServer, FetchPlanEntry]:
    disk = LocalDisk("m0.disk")
    index = write_spill(disk, "m0.out", [[(b"key", b"value")]])
    server = ShuffleServer("faulty-node").start()
    server.register("job.m0000", index, disk)
    return server, FetchPlanEntry(server.address, "job.m0000", 0)


@pytest.mark.network
@pytest.mark.parametrize("kind", ("refuse", "drop", "truncate"))
def test_fault_kinds_recover_within_bounded_retries(kind):
    server, entry = serve_one_segment()
    try:
        with installed(FaultPlan.parse(f"shuffle.{kind}:1.0:2")):
            result = fetch_segment(entry, FAST)
    finally:
        server.stop()
    assert result.attempts == 3  # two faulted attempts, then success
    assert result.wait_seconds > 0
    assert server.snapshot().faults_injected == {kind: 2}


@pytest.mark.network
def test_slow_peer_times_out_then_recovers():
    # Client timeout far below the injected delay: the first attempt is
    # a read timeout, the second (no longer faulted) succeeds.
    server, entry = serve_one_segment()
    policy = RetryPolicy(
        max_attempts=3, backoff_base_seconds=0.005, backoff_max_seconds=0.02,
        timeout_seconds=0.2,
    )
    try:
        with installed(FaultPlan.parse("shuffle.delay:1.0:1", delay_seconds=2.0)):
            result = fetch_segment(entry, policy)
    finally:
        server.stop()
    assert result.attempts == 2
    assert server.snapshot().faults_injected == {"delay": 1}


@pytest.mark.network
def test_exhausted_retries_raise_clean_shuffle_error():
    # The fault outlives the retry budget: clean failure, not a hang.
    server, entry = serve_one_segment()
    try:
        with installed(FaultPlan.parse("shuffle.drop:1.0:99")):
            with pytest.raises(ShuffleError, match="failed after 4 attempts"):
                fetch_segment(entry, FAST)
    finally:
        server.stop()


# ----------------------------------------------------------------------
# whole jobs under injected faults
# ----------------------------------------------------------------------

def run_faulted(
    kind: str, fraction: float, backend: str = "cluster", attempts: int = 1, **conf
):
    extra = {
        Keys.EXEC_BACKEND: backend,
        Keys.EXEC_WORKERS: 4,
        Keys.SHUFFLE_MODE: "net",
        Keys.FAULTS_SPEC: "" if kind == "none" else f"shuffle.{kind}:{fraction}:{attempts}",
        Keys.SHUFFLE_BACKOFF_BASE: 0.005,
        Keys.SHUFFLE_BACKOFF_MAX: 0.02,
        **conf,
    }
    app = build_app("wordcount", "baseline", scale=0.02, num_splits=3,
                    extra_conf=extra)
    return LocalJobRunner().run(app.job)


@pytest.mark.network
def test_job_survives_ten_percent_fetch_failures():
    """WordCount on the cluster backend completes with 10% of fetches
    injected to fail, retries visible."""
    clean = run_faulted("none", 0.0)
    # Seed 92 selects two of the six fetches (wordcount.m0000/p1 and
    # m0002/p1) under the unified seed:site:kind:token hash.
    faulted = run_faulted("drop", 0.10, **{Keys.FAULTS_SEED: 92})

    pairs = lambda r: [(k.to_bytes(), v.to_bytes()) for k, v in r.output_pairs()]
    assert pairs(faulted) == pairs(clean)

    injected = sum(h.total_faults for h in faulted.shuffle_hosts)
    assert injected > 0, "seed 92 must select at least one fetch at 10%"
    assert faulted.counters.get(Counter.SHUFFLE_FETCH_RETRIES) == injected
    assert faulted.counters.get(Counter.SHUFFLE_BACKOFF_MS) > 0
    assert sum(r.fetch_retries for r in faulted.reduce_results) == injected
    assert clean.counters.get(Counter.SHUFFLE_FETCH_RETRIES) == 0


@pytest.mark.network
@pytest.mark.parametrize("kind", ("refuse", "truncate"))
def test_job_survives_heavy_faults_on_serial_backend(kind):
    # Seed 7 selects four of the six fetches for either kind; the
    # default seed selects none of them for refuse.
    result = run_faulted(kind, 0.5, backend="serial", **{Keys.FAULTS_SEED: 7})
    assert result.output_pairs()
    assert result.counters.get(Counter.SHUFFLE_FETCH_RETRIES) > 0
    injected = {k: n for h in result.shuffle_hosts
                for k, n in h.faults_injected.items()}
    assert set(injected) == {kind}


@pytest.mark.network
def test_unrecoverable_faults_fail_the_job_cleanly():
    """A fault that outlives the retry budget is a framework failure,
    not a user-code one: the attempt loop does not burn task attempts on
    it, the :class:`ShuffleError` propagates — crucially without a hang,
    naming the segment and the last transport error."""
    with pytest.raises(ShuffleError, match="failed after 2 attempts"):
        run_faulted("drop", 1.0, attempts=99, **{Keys.SHUFFLE_FETCH_ATTEMPTS: 2})
