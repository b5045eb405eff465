"""Network shuffle produces byte-identical output to the in-process shuffle.

The transport is the only thing ``--shuffle net`` changes: segments
arrive over localhost TCP instead of direct disk reads, but the fetch
plan order, the pricing, the budgeted merge, and the reduce logic are
shared, so for every paper application — with and without frequency
buffering — the reduce output must match ``--shuffle mem`` byte for
byte on every backend, and the ledger must match wherever task
placement is fixed.
"""

from __future__ import annotations

import pytest

from repro.config import Keys
from repro.engine.costmodel import DEFAULT_COST_MODEL
from repro.engine.counters import Counter
from repro.engine.instrumentation import Op
from repro.engine.runner import JobResult, LocalJobRunner
from repro.experiments.common import build_app

pytestmark = pytest.mark.network

PAPER_APPS = ("wordcount", "invertedindex", "wordpostag")


def run_app(
    app_name: str, shuffle: str, freqbuf: bool, backend: str = "serial"
) -> JobResult:
    app = build_app(
        app_name,
        "freq" if freqbuf else "baseline",
        scale=0.02,
        num_splits=3,
        extra_conf={
            Keys.EXEC_BACKEND: backend,
            Keys.EXEC_WORKERS: 4,
            Keys.SHUFFLE_MODE: shuffle,
            # Small buffer so every app actually spills more than once.
            Keys.SPILL_BUFFER_BYTES: 16 * 1024,
        },
    )
    return LocalJobRunner().run(app.job)


def serialized_output(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


@pytest.mark.parametrize("freqbuf", (False, True), ids=("plain", "freqbuf"))
@pytest.mark.parametrize("app_name", PAPER_APPS)
def test_net_matches_mem_byte_for_byte(app_name: str, freqbuf: bool) -> None:
    mem = run_app(app_name, "mem", freqbuf)
    assert mem.output_pairs(), "empty reference run proves nothing"

    net = run_app(app_name, "net", freqbuf)
    assert serialized_output(net) == serialized_output(mem)
    # Record-level accounting is transport-independent too.
    for counter in (Counter.MAP_OUTPUT_RECORDS, Counter.REDUCE_OUTPUT_RECORDS):
        assert net.counters.get(counter) == mem.counters.get(counter)


@pytest.mark.parametrize("backend", ("cluster",))
def test_net_matches_mem_on_parallel_backends(backend: str) -> None:
    mem = run_app("wordcount", "mem", freqbuf=False, backend=backend)
    net = run_app("wordcount", "net", freqbuf=False, backend=backend)
    assert serialized_output(net) == serialized_output(mem)


def test_cluster_backend_charges_measured_shuffle() -> None:
    """WordCount on the cluster backend with ``--shuffle net`` fetches
    every segment over a real socket and charges what it measured to
    the ledger's samples, not to ``Op.SHUFFLE``: the modelled charge is
    mem mode's, whose only placement-dependent part is ``net_byte`` per
    stored byte of a segment that crossed daemons."""
    result = run_app("wordcount", "net", freqbuf=False, backend="cluster")
    maps = len(result.map_results)
    reduces = len(result.reduce_results)
    assert maps > 1 and reduces > 1

    # Every (map, reduce) segment crossed the wire exactly once.
    assert result.counters.get(Counter.SHUFFLE_FETCHES) == maps * reduces
    assert result.counters.get(Counter.SHUFFLE_FETCH_RETRIES) == 0

    seconds = result.ledger.get_samples("shuffle.fetch_seconds")
    sizes = result.ledger.get_samples("shuffle.fetch_bytes")
    assert len(seconds) == len(sizes) == maps * reduces
    assert all(s > 0 for s in seconds)

    # A serial mem run is one simulated host: no segment crosses a host,
    # so the cluster's Op.SHUFFLE exceeds it by the modelled wire alone.
    mem = run_app("wordcount", "mem", freqbuf=False)
    assert mem.ledger.get_samples("shuffle.fetch_seconds") == []
    remote = sum(task.remote_shuffle_bytes for task in result.reduce_results)
    assert remote > 0
    assert result.ledger.get(Op.SHUFFLE) - mem.ledger.get(Op.SHUFFLE) == pytest.approx(
        DEFAULT_COST_MODEL.net_byte * remote
    )

    # The servers saw exactly the bytes the fetchers measured.
    assert result.shuffle_hosts, "cluster backend must snapshot its servers"
    served = sum(h.bytes_served for h in result.shuffle_hosts)
    assert served == int(sum(sizes)) == result.counters.get(Counter.SHUFFLE_BYTES)
    assert all(h.total_faults == 0 for h in result.shuffle_hosts)


#: Transport-independence cases: a combiner job, an unproven combiner
#: over zlib-compressed spills, and a combiner-less sort whose reduce
#: merge stages to disk (256 bytes of reduce memory).
LEDGER_CASES = {
    "wordcount": ("wordcount", {}),
    "invertedindex-zlib": ("invertedindex", {Keys.SPILL_COMPRESSION: "zlib"}),
    "distributedsort-staged": ("distributedsort", {Keys.REDUCE_MEMORY_BYTES: 256}),
}
#: What only a network fetch counts.
NET_ONLY_COUNTERS = {
    Counter.SHUFFLE_FETCHES.value,
    Counter.SHUFFLE_FETCH_RETRIES.value,
    Counter.SHUFFLE_BACKOFF_MS.value,
}


@pytest.mark.parametrize("case", LEDGER_CASES)
def test_ledger_is_transport_independent(case: str) -> None:
    """On a backend whose placement is fixed, ``--shuffle net`` prices
    the shuffle as ``mem`` does: digest, counters (less the fetch
    counters) and every ``Op`` of the ledger are ``==``."""
    app_name, conf = LEDGER_CASES[case]

    def run(mode: str) -> JobResult:
        app = build_app(
            app_name, "baseline", scale=0.02, num_splits=3,
            extra_conf={Keys.SHUFFLE_MODE: mode, Keys.NUM_REDUCERS: 2, **conf},
        )
        return LocalJobRunner().run(app.job)

    def counters(result: JobResult) -> dict:
        return {
            name: value for name, value in result.counters.as_dict().items()
            if name not in NET_ONLY_COUNTERS
        }

    mem, net = run("mem"), run("net")
    assert net.counters.get(Counter.SHUFFLE_FETCHES) == 3 * 2
    assert net.output_digest() == mem.output_digest()
    assert counters(net) == counters(mem)
    assert net.ledger.work == mem.ledger.work


def test_mem_mode_runs_no_servers() -> None:
    result = run_app("wordcount", "mem", freqbuf=False)
    assert result.shuffle_hosts == []
    assert result.counters.get(Counter.SHUFFLE_FETCHES) == 0
