"""The map-side spill path — packed buffer, kvindex sort, combine,
spill files, merges — against references that do not share its code.

Until ``f931133`` the repo carried two interchangeable spill buffers
(one Python object per record vs. the packed kvbuffer) and
this file proved them equal cell by cell.  The object buffer is gone;
two references replace it:

* ``golden_spillpath.json``, captured on ``f931133`` *through the object
  buffer*: for five apps × two configurations (plus a compressed
  frequency-buffering run and an exact-comparison-counting run) at tiny
  scale, with a spill buffer small enough that every task cuts many
  spills and merges them, the output digest, every counter, every ledger
  float and every final map-output segment (length, records, CRC).
  invertedindex's and wordpostag's combiners are folds the matcher
  cannot prove (generic combine path); wordcount's is a proven int sum
  (folded on raw ints); accesslogjoin and distributedsort have none.
* at collector level, plain Python: ``sorted()`` and a dict for the
  segments, a ten-line occupancy model for the spill boundaries.

Regenerate the golden (only ever on a commit known to be right)::

    PYTHONPATH=src python tests/engine/test_binary_collector.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import Keys
from repro.engine.api import HashPartitioner
from repro.engine.binarybuffer import RECORD_METADATA_BYTES
from repro.engine.collector import StandardCollector
from repro.engine.combiner import CombinerRunner
from repro.engine.costmodel import DEFAULT_COST_MODEL, UserCodeCosts
from repro.engine.counters import Counter, Counters
from repro.engine.instrumentation import Ledger, TaskInstruments
from repro.engine.runner import LocalJobRunner
from repro.engine.spillpolicy import StaticSpillPolicy
from repro.errors import SpillBufferError
from repro.experiments.common import build_app
from repro.io.blockdisk import LocalDisk
from repro.io.spillfile import read_segment
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from tests.conftest import SumCombiner, comparable_counters

# ----------------------------------------------------------------------
# collector level
# ----------------------------------------------------------------------


def make_collector(
    capacity: int = 512,
    partitions: int = 2,
    combiner: bool = True,
    spill_percent: float = 0.8,
    exact: bool = False,
):
    counters = Counters()
    instruments = TaskInstruments(Ledger())
    runner = None
    if combiner:
        runner = CombinerRunner(
            SumCombiner(), Text, VIntWritable, UserCodeCosts(), counters
        )
    collector = StandardCollector(
        task_id="t0",
        disk=LocalDisk(),
        num_partitions=partitions,
        partitioner=HashPartitioner(),
        policy=StaticSpillPolicy(spill_percent),
        capacity_bytes=capacity,
        cost_model=DEFAULT_COST_MODEL,
        instruments=instruments,
        counters=counters,
        combiner_runner=runner,
        exact_comparisons=exact,
    )
    return collector, counters, instruments


def drive(words, **kwargs):
    collector, counters, _ = make_collector(**kwargs)
    for word in words:
        collector.collect(Text(word), VIntWritable(1))
    index = collector.flush()
    segments = [
        list(read_segment(collector.disk, index, p))
        for p in range(collector.num_partitions)
    ]
    return segments, counters


def expected_segments(words, partitions: int = 2, combiner: bool = True):
    """What the final map output must hold: per partition, the records
    in key order (arrival order among equal keys), summed per key when
    there is a combiner."""
    partitioner = HashPartitioner()
    one = VIntWritable(1).to_bytes()
    runs: list[list] = [[] for _ in range(partitions)]
    for word in words:
        key = Text(word).to_bytes()
        runs[partitioner.partition(key, partitions)].append((key, one))
    for run in runs:
        run.sort(key=lambda record: record[0])
    if not combiner:
        return runs
    summed = []
    for run in runs:
        counts: dict[bytes, int] = {}
        for key, _ in run:
            counts[key] = counts.get(key, 0) + 1
        summed.append([(key, VIntWritable(n).to_bytes()) for key, n in counts.items()])
    return summed


WORDS = (["pear", "apple", "fig", "apple", "kiwi", "épée", ""] * 40) + [
    f"word{i % 17}" for i in range(200)
]


class TestCollectorEquivalence:
    """Unit-level: the collector over an emit stream vs. plain Python."""

    @pytest.mark.parametrize("combiner", (False, True), ids=("plain", "combine"))
    @pytest.mark.parametrize("exact", (False, True), ids=("model", "exact"))
    def test_segments_counters_ledger_identical(self, combiner, exact):
        segments, counters = drive(WORDS, capacity=400, combiner=combiner, exact=exact)
        assert counters.get(Counter.SPILLS) > 10, "want a multi-pass merge"
        assert segments == expected_segments(WORDS, combiner=combiner)
        assert counters.get(Counter.MAP_OUTPUT_RECORDS) == len(WORDS)
        assert counters.get(Counter.MERGED_RECORDS) >= counters.get(Counter.SPILLED_RECORDS)
        if combiner:
            # Every record that entered a combine came out of it or was
            # folded away; nothing else removes records.
            folded = counters.get(Counter.COMBINE_INPUT_RECORDS) - counters.get(
                Counter.COMBINE_OUTPUT_RECORDS
            )
            assert len(WORDS) - folded == sum(len(segment) for segment in segments)
        else:
            assert counters.get(Counter.SPILLED_RECORDS) == len(WORDS)

    def test_spill_boundaries_identical(self):
        """Occupancy is payload + per-record metadata.  At x = 1 a spill
        is cut exactly when the buffer is full — or, the hard-capacity
        case, just before a record that would not fit."""
        capacity = 300
        spills = occupancy = 0
        for word in WORDS:
            accounted = len(Text(word).to_bytes()) + 1 + RECORD_METADATA_BYTES
            if occupancy + accounted > capacity:  # hard capacity
                spills, occupancy = spills + 1, 0
            occupancy += accounted
            if occupancy >= capacity:  # threshold
                spills, occupancy = spills + 1, 0
        spills += occupancy > 0  # flush
        _, counters = drive(WORDS, capacity=capacity, combiner=False, spill_percent=1.0)
        assert counters.get(Counter.SPILLS) == spills

    def test_prefix_ties_settled_by_full_key(self):
        """Keys sharing an 8-byte prefix (and short keys whose padding
        collides with explicit trailing NULs) sort by full key bytes."""
        tricky = ["prefix00aaa", "prefix00", "prefix00zzz", "a", "a\0", "ab", "b"] * 20
        segments, _ = drive(tricky, capacity=256, combiner=False)
        assert segments == expected_segments(tricky, combiner=False)


class TestOversizedRecord:
    """A single record that can never fit the packed ("binary") buffer
    fails fast and identifies itself before any useless spill."""

    @pytest.mark.parametrize("buffer", ("binary",))
    def test_oversized_record_identified(self, buffer):
        collector, counters, _ = make_collector(capacity=256, combiner=False)
        collector.collect(Text("small"), VIntWritable(1))
        with pytest.raises(SpillBufferError) as excinfo:
            collector.collect(Text("K" * 300), VIntWritable(1))
        message = str(excinfo.value)
        assert "single record" in message
        assert "KKKK" in message, "message must preview the offending key"
        assert "partition" in message
        assert "repro.io.sort.buffer.bytes" in message
        # Failed before spilling the records already buffered.
        assert counters.get(Counter.SPILLS) == 0

    @pytest.mark.parametrize("buffer", ("binary",))
    def test_record_over_threshold_spills_cleanly(self, buffer):
        """Larger than the spill threshold but within capacity: the
        record lands in its own clean single-record spill, no error."""
        collector, counters, _ = make_collector(
            capacity=512, combiner=False, spill_percent=0.5
        )
        big = "B" * 400  # > 0.5 * 512 threshold, < 512 capacity
        collector.collect(Text(big), VIntWritable(1))
        index = collector.flush()
        assert counters.get(Counter.SPILLS) >= 1
        records = [
            pair
            for p in range(collector.num_partitions)
            for pair in read_segment(collector.disk, index, p)
        ]
        assert len(records) == 1
        assert Text.from_bytes(records[0][0]).value == big


# ----------------------------------------------------------------------
# job level: the golden
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("golden_spillpath.json")

GOLDEN_APPS = ("wordcount", "invertedindex", "wordpostag", "accesslogjoin", "distributedsort")
CONFIGS = ("baseline", "combined")
#: 8–16 KiB: dozens of spills per job, so every task merges.
BUFFER_BYTES = {"baseline": 8 * 1024, "combined": 16 * 1024}
#: distributedsort's records are few and wide: 4 000 of them, not 400.
SCALE = {"distributedsort": 0.2}

#: name -> (app, config, extra conf)
CASES = {f"{app}/{config}": (app, config, {}) for app in GOLDEN_APPS for config in CONFIGS}
CASES["wordcount/zlib+freqbuf"] = (
    "wordcount", "baseline", {Keys.SPILL_COMPRESSION: "zlib", Keys.FREQBUF_ENABLED: True}
)
CASES["wordcount/exact"] = ("wordcount", "baseline", {Keys.EXACT_COMPARISON_COUNTING: True})


def snapshot(case: str, **conf) -> dict:
    app, config, extra = CASES[case]
    job = build_app(
        app,
        config,
        scale=SCALE.get(app, 0.02),
        extra_conf={Keys.SPILL_BUFFER_BYTES: BUFFER_BYTES[config], **extra, **conf},
    ).job
    result = LocalJobRunner().run(job)
    return {
        "digest": result.output_digest(),
        "counters": result.counters.as_dict(),
        "ledger": result.ledger.as_dict(),  # floats: JSON round-trips them exactly
        "segments": [
            [[entry.length, entry.records, entry.crc] for entry in task.output_index.entries]
            for task in result.map_results
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestJobLevelByteIdentity:
    """Whole-job: digest, counters, ledger and final map-output
    segments are what the object buffer produced."""

    @pytest.mark.parametrize("app_name", GOLDEN_APPS)
    def test_apps_identical_serial_mem(self, golden, app_name):
        for config in CONFIGS:
            case = f"{app_name}/{config}"
            assert golden[case]["counters"]["spills"] > 2 * len(golden[case]["segments"]), case
            assert snapshot(case) == golden[case], case

    def test_identical_with_compression_and_freqbuf(self, golden):
        assert snapshot("wordcount/zlib+freqbuf") == golden["wordcount/zlib+freqbuf"]

    def test_exact_comparison_counting_identical(self, golden):
        assert snapshot("wordcount/exact") == golden["wordcount/exact"]

    def test_identical_cluster_backend(self, golden):
        # The daemons are distinct hosts, so SHUFFLE also charges the
        # modelled network cost of the segments placement sent across
        # them, and the master counts its own events; the map side must
        # not notice.
        forked = snapshot(
            "wordcount/baseline", **{Keys.EXEC_BACKEND: "cluster", Keys.EXEC_WORKERS: 3}
        )
        reference = golden["wordcount/baseline"]
        assert forked["digest"] == reference["digest"]
        assert forked["segments"] == reference["segments"]
        assert comparable_counters(forked["counters"]) == reference["counters"]
        for op, amount in reference["ledger"].items():
            if op != "shuffle":
                assert forked["ledger"][op] == amount, op

    @pytest.mark.network
    def test_identical_net_shuffle(self, golden):
        # Net mode charges measured seconds to SHUFFLE and counts its
        # fetches; the map side must not notice.
        served = snapshot("wordcount/baseline", **{Keys.SHUFFLE_MODE: "net"})
        reference = golden["wordcount/baseline"]
        assert served["digest"] == reference["digest"]
        assert served["segments"] == reference["segments"]
        for counter, amount in reference["counters"].items():
            assert served["counters"][counter] == amount, counter
        for op, amount in reference["ledger"].items():
            if op != "shuffle":
                assert served["ledger"][op] == amount, op


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: snapshot(case) for case in CASES}, indent=1, sort_keys=True) + "\n"
    )
