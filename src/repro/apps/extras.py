"""Extra applications beyond the paper's benchmark suite.

The paper's introduction contrasts text-centric jobs against relational
operators that "can ignore effectively huge portions of the input data";
these two classic workloads fill out that space and are useful for
exercising the engine, but they are *not* part of the reproduced
tables/figures (``APP_NAMES`` stays the paper's six):

* **Selection** — Pavlo et al.'s selection task,
  ``SELECT pageURL, pageRank FROM Rankings WHERE pageRank > threshold``:
  map filters almost everything out, so there is nearly no intermediate
  data and the paper's optimizations should (and do) have nothing to
  optimize — the degenerate corner of Figure 10's space.
* **DistributedSort** — TeraSort-shaped total ordering: map is the
  identity, reduce is the identity, and *all* the work is the
  framework's sort/shuffle machinery — the opposite corner, maximal
  abstraction cost with zero combine-ability.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..data.accesslog import AccessLogSpec, generate_rankings, generate_user_visits
from ..data.rng import rng_for
from ..engine.api import Emitter, Mapper, Partitioner, Reducer
from ..engine.costmodel import UserCodeCosts
from ..engine.inputformat import TextInput
from ..engine.job import JobSpec
from ..serde.numeric import VIntWritable
from ..serde.text import Text
from ..serde.writable import Writable
from .base import AppJob, make_conf

SELECTION_COSTS = UserCodeCosts(
    map_record=180.0, map_byte=1.6, combine_record=10.0, reduce_record=12.0
)
SORT_COSTS = UserCodeCosts(
    map_record=60.0, map_byte=0.8, combine_record=10.0, reduce_record=10.0
)
IPCOUNT_COSTS = UserCodeCosts(
    map_record=150.0, map_byte=1.4, combine_record=12.0, reduce_record=14.0
)


class SelectionMapper(Mapper):
    """Emit ``(pageURL, pageRank)`` only for rows above the threshold."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        line = value.value  # type: ignore[attr-defined]
        if not line:
            return
        url, rank, _duration = line.split("|")
        if int(rank) > self.threshold:
            emit(Text(url), Text(rank))


class IdentityReducer(Reducer):
    """Pass every value through (selection output / sorted records)."""

    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        for value in values:
            emit(key, value)


class AccessLogIpMapper(Mapper):
    """Emit ``(sourceIP, 1)`` per visit record."""

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        line = value.value  # type: ignore[attr-defined]
        if not line:
            return
        fields = line.split("|")
        emit(Text(fields[0]), VIntWritable(1))


class AccessLogIpReducer(Reducer):
    """Visits per source IP — a pure integer sum fold, and the job
    deliberately declares *no* combiner: every map-output record
    reaches the reduce loop's proven int fold."""

    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        emit(key, VIntWritable(sum(v.value for v in values)))  # type: ignore[attr-defined]


class SortMapper(Mapper):
    """TeraSort map: the record's key *is* the sort key; identity value."""

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        line = value.value  # type: ignore[attr-defined]
        if not line:
            return
        sort_key, _, payload = line.partition("\t")
        emit(Text(sort_key), Text(payload))


class RangePartitioner(Partitioner):
    """Total-order partitioner over fixed-width hex keys.

    Keys are uniform hex strings, so slicing the first byte's value
    range evenly gives balanced, *ordered* partitions: partition i holds
    strictly smaller keys than partition i+1 — concatenating reducer
    outputs yields a globally sorted file, TeraSort's contract.
    """

    def partition(self, key_bytes: bytes, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        if num_partitions == 1 or not key_bytes:
            return 0
        # hex alphabet 0-9a-f -> 16 buckets, scaled to num_partitions
        char = key_bytes[0]
        value = char - 48 if 48 <= char <= 57 else char - 87 if 97 <= char <= 102 else 0
        return min(num_partitions - 1, value * num_partitions // 16)


def generate_sort_records(records: int, payload_bytes: int = 32, seed: int = 0) -> bytes:
    """TeraSort-style input: ``<hex key>\\t<payload>`` per line."""
    rng = rng_for("sortbench", seed)
    keys = rng.integers(0, 16**8, size=records)
    lines = [
        f"{int(k):08x}\tv{'x' * (payload_bytes - 1)}" for k in keys
    ]
    return ("\n".join(lines) + "\n").encode()


def build_selection(
    scale: float = 0.1,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    seed: int = 0,
    threshold: int = 9000,
) -> AppJob:
    """Pavlo et al.'s selection over the Rankings table."""
    spec = AccessLogSpec(seed=seed).scaled(scale)
    data = generate_rankings(spec)
    conf = make_conf(conf_overrides)
    split_size = max(1, len(data) // num_splits)

    job = JobSpec(
        name="selection",
        input_format=TextInput(data, split_size=split_size, path="rankings.dat"),
        mapper_factory=lambda: SelectionMapper(threshold),
        reducer_factory=IdentityReducer,
        combiner_factory=None,
        map_output_key_cls=Text,
        map_output_value_cls=Text,
        conf=conf,
        user_costs=SELECTION_COSTS,
    )

    def oracle() -> dict:
        out = {}
        for line in data.decode().splitlines():
            url, rank, _ = line.split("|")
            if int(rank) > threshold:
                out[url] = rank
        return out

    return AppJob(
        app_name="selection",
        text_centric=False,
        job=job,
        oracle=oracle,
        info={"log": spec, "threshold": threshold, "bytes": len(data)},
    )


def build_accesslogip(
    scale: float = 0.1,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    seed: int = 0,
) -> AppJob:
    """``SELECT sourceIP, count(*) FROM UserVisits GROUP BY sourceIP``."""
    spec = AccessLogSpec(seed=seed).scaled(scale)
    data = generate_user_visits(spec)
    conf = make_conf(conf_overrides)
    split_size = max(1, len(data) // num_splits)

    job = JobSpec(
        name="accesslogip",
        input_format=TextInput(data, split_size=split_size, path="uservisits.dat"),
        mapper_factory=AccessLogIpMapper,
        reducer_factory=AccessLogIpReducer,
        combiner_factory=None,  # every record reaches the proven reduce fold
        map_output_key_cls=Text,
        map_output_value_cls=VIntWritable,
        conf=conf,
        user_costs=IPCOUNT_COSTS,
    )

    def oracle() -> dict:
        out: dict[str, int] = {}
        for line in data.decode().splitlines():
            if not line:
                continue
            ip = line.split("|")[0]
            out[ip] = out.get(ip, 0) + 1
        return out

    return AppJob(
        app_name="accesslogip",
        text_centric=False,
        job=job,
        oracle=oracle,
        info={"log": spec, "bytes": len(data)},
    )


def build_distributedsort(
    scale: float = 0.1,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    seed: int = 0,
) -> AppJob:
    """TeraSort-shaped total ordering of random fixed-width keys."""
    records = max(200, int(20_000 * scale))
    data = generate_sort_records(records, seed=seed)
    conf = make_conf(conf_overrides)
    split_size = max(1, len(data) // num_splits)

    job = JobSpec(
        name="distributedsort",
        input_format=TextInput(data, split_size=split_size, path="sortinput.dat"),
        mapper_factory=SortMapper,
        reducer_factory=IdentityReducer,
        combiner_factory=None,  # sorting has nothing to combine
        partitioner=RangePartitioner(),
        map_output_key_cls=Text,
        map_output_value_cls=Text,
        conf=conf,
        user_costs=SORT_COSTS,
    )

    def oracle() -> dict:
        keys = sorted(line.split("\t")[0] for line in data.decode().splitlines())
        return {"sorted_keys": keys}

    return AppJob(
        app_name="distributedsort",
        text_centric=False,
        job=job,
        oracle=oracle,
        info={"records": records, "bytes": len(data)},
    )
