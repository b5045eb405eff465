"""Reduce task execution: shuffle-fetch, merge, group, reduce, output.

A :class:`ReduceTaskRunner` fetches and merges one partition of every
map output — it picks the segment source, direct reads (``mem``) or a
:class:`~repro.shuffle.fetcher.FetcherPool` over TCP (``net``), for the
one :class:`~repro.engine.shuffle.ShuffleService`, which prices both
alike — groups the merged run by key (or by ``group_key_fn``'s
prefix, for secondary sort), runs the user's ``reduce()`` per group and
writes the output pairs, serialized once, as the partition's part file:
one framed record stream (:mod:`repro.io.records`, Hadoop's
``part-r-NNNNN``).  Writables are built from it only when a caller asks
(:attr:`ReduceTaskResult.output`).

Where the reducer's source *proves* what ``reduce()`` computes
(:func:`proven_reduce`, built on :mod:`repro.lint.proofs`), the group
loop skips the call and the writable round trip:

* an identity ``for v in values: emit(key, v)`` becomes a pass-through
  that frames the merged key and value bytes as they are, counted as
  ``len(key) + len(value)`` output bytes per the Writable contract;
* ``emit(key, W(sum|min|max(v.value for v in values)))`` over an
  exact-int value class folds the merged run in one pass, decoding each
  value once, and frames ``W(total).to_bytes()`` once per group —
  a ``W`` that refuses the total fails as ``UserCodeError("reduce")``,
  as the ``reduce()`` that would have built it.

Both still run ``from_bytes`` on every key and value they frame (and
discard the result), so malformed bytes raise the generic loop's
``SerdeError`` in its order.

Both charge ``Op.SHUFFLE`` and ``Op.REDUCE`` per group in the generic
loop's float order, so counters and ledger are ``==`` whichever loop
ran.  A reducer that defines ``setup``/``cleanup``, a decorated or
inherited ``reduce()``, ``FnReducer`` and any proxy that hides the
source (``bench/``'s timing proxy) take the generic loop, which is
therefore the differential oracle of both proven ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from ..errors import UserCodeError
from ..io.merger import group_sorted, group_sorted_by
from ..io.records import append_record, decode_records
from ..serde.numeric import int_reader
from ..serde.writable import Writable, class_from_ref, class_ref
from .combiner import END_OF_RUN, FOLD_OPS
from .counters import Counter, Counters
from .instrumentation import Ledger, Op, TaskInstruments
from .job import JobSpec
from .maptask import MapTaskResult
from .shuffle import ShuffleService


@dataclass
class ReduceTaskResult:
    """A finished reduce task: its part file plus accounting.

    *records* is the partition's output, framed ``vint(len) key
    vint(len) value`` per pair; *output_classes* holds ``(first record,
    key class, value class)`` for each run of records that share a
    class pair — one run, unless a generic ``reduce()`` changes the
    classes it emits.  Classes pickle by :func:`~repro.serde.writable.
    class_ref`, so a result crosses process and socket boundaries with
    no writable object in it.
    """

    task_id: str
    partition: int
    records: bytes
    output_records: int
    output_classes: tuple[tuple[int, type[Writable], type[Writable]], ...]
    ledger: Ledger
    counters: Counters
    shuffle_bytes: int
    remote_shuffle_bytes: int
    host: str | None = None
    wall_seconds: float = 0.0  # measured wall-clock duration of the attempt
    fetch_retries: int = 0  # network shuffle: failed fetch attempts retried
    fetch_wait_seconds: float = 0.0  # network shuffle: backoff + lost-attempt wait

    @property
    def output(self) -> list[tuple[Writable, Writable]]:
        """The output pairs as writables, decoded from :attr:`records`."""
        pairs = decode_records(self.records)
        runs = self.output_classes
        ends = [start for start, _, _ in runs[1:]] + [len(pairs)]
        out: list[tuple[Writable, Writable]] = []
        for (start, key_cls, value_cls), end in zip(runs, ends):
            key_from_bytes, value_from_bytes = key_cls.from_bytes, value_cls.from_bytes
            out += [(key_from_bytes(k), value_from_bytes(v)) for k, v in pairs[start:end]]
        return out

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["output_classes"] = tuple(
            (start, class_ref(k), class_ref(v)) for start, k, v in self.output_classes
        )
        return state

    def __setstate__(self, state: dict) -> None:
        state["output_classes"] = tuple(
            (start, class_from_ref(k), class_from_ref(v))
            for start, k, v in state["output_classes"]
        )
        self.__dict__.update(state)

    @property
    def duration_work(self) -> float:
        """Modelled wall-work of this single-threaded task (the network
        transfer itself is timed by the cluster simulator's bandwidth
        model, on top of the CPU work accounted here)."""
        return self.ledger.total()


class ReduceTaskRunner:
    """Runs one reduce partition against a set of finished map tasks."""

    def __init__(
        self,
        job: JobSpec,
        partition: int,
        map_results: list[MapTaskResult],
        task_id: str,
        instruments: TaskInstruments,
        counters: Counters,
        host: str | None = None,
    ) -> None:
        self.job = job
        self.partition = partition
        self.map_results = map_results
        self.task_id = task_id
        self.instruments = instruments
        self.counters = counters
        self.host = host

    def run(self) -> ReduceTaskResult:
        start = time.perf_counter()
        result = self._run_task()
        result.wall_seconds = time.perf_counter() - start
        return result

    def _run_task(self) -> ReduceTaskResult:
        job = self.job
        model = job.cost_model
        costs = job.user_costs
        instruments = self.instruments
        counters = self.counters

        from ..config import Keys
        from ..io.blockdisk import LocalDisk

        pool = None
        if job.conf.get_str(Keys.SHUFFLE_MODE) == "net":
            # Real sockets: fetch from the per-node shuffle servers.
            from ..shuffle.fetcher import FetcherPool

            pool = FetcherPool.for_partition(self.map_results, self.partition, job.conf)
        shuffle = ShuffleService(
            model,
            instruments,
            counters,
            self.host,
            memory_budget_bytes=job.conf.get_positive_int(Keys.REDUCE_MEMORY_BYTES),
            staging_disk=LocalDisk(f"{self.task_id}.disk"),
        )
        merged = shuffle.fetch_and_merge(self.map_results, self.partition, pool)

        reducer = job.reducer_factory()
        key_cls = job.map_output_key_cls
        value_cls = job.map_output_value_cls

        part = bytearray()
        classes: list[tuple[int, type[Writable], type[Writable]]] = []
        output_records = output_bytes = 0

        def emit(out_key: Writable, out_value: Writable) -> None:
            nonlocal output_records, output_bytes
            key_bytes = out_key.to_bytes()
            value_bytes = out_value.to_bytes()
            if (
                not classes
                or type(out_key) is not classes[-1][1]
                or type(out_value) is not classes[-1][2]
            ):
                classes.append((output_records, type(out_key), type(out_value)))
            append_record(part, key_bytes, value_bytes)
            output_bytes += len(key_bytes) + len(value_bytes)
            output_records += 1

        try:
            reducer.setup()
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("reduce", f"setup failed: {exc}") from exc

        if job.group_key_fn is not None:
            # Secondary sort: group by the grouping prefix, values in
            # full-key order, every record re-keyed by its group's first
            # full key (the key reduce() is handed).
            merged = (
                (first_key, value)
                for first_key, pairs in group_sorted_by(merged, job.group_key_fn)
                for _, value in pairs
            )
        groups = group_sorted(merged)

        proof = proven_reduce(reducer, value_cls)
        if proof is None:
            input_groups, input_records = self._call_reduce(
                groups, reducer.reduce, emit, key_cls.from_bytes, value_cls.from_bytes
            )
        elif proof.identity:
            input_groups, input_records, output_bytes = self._pass_through(
                groups, part, key_cls.from_bytes, value_cls.from_bytes
            )
            classes.append((0, key_cls, value_cls))
            output_records = input_records
        else:
            input_groups, input_records, output_bytes = self._fold(
                merged, part, proof, key_cls.from_bytes, value_cls
            )
            classes.append((0, key_cls, proof.wrapper))
            output_records = input_groups
        counters.incr(Counter.REDUCE_INPUT_GROUPS, input_groups)
        counters.incr(Counter.REDUCE_INPUT_RECORDS, input_records)

        try:
            reducer.cleanup(emit)
        except UserCodeError:
            raise
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("reduce", f"cleanup failed: {exc}") from exc

        instruments.charge(Op.OUTPUT, model.output_byte * output_bytes)
        counters.incr(Counter.REDUCE_OUTPUT_RECORDS, output_records)
        counters.incr(Counter.REDUCE_OUTPUT_BYTES, output_bytes)

        return ReduceTaskResult(
            task_id=self.task_id,
            partition=self.partition,
            records=bytes(part),
            output_records=output_records,
            output_classes=tuple(classes),
            ledger=instruments.ledger,
            counters=counters,
            shuffle_bytes=shuffle.bytes_fetched,
            remote_shuffle_bytes=shuffle.remote_bytes_fetched,
            host=self.host,
            fetch_retries=shuffle.fetch_retries,
            fetch_wait_seconds=shuffle.fetch_wait_seconds,
        )

    # The three group loops charge SHUFFLE (a group's deserialization is
    # framework work) and REDUCE per group into locals, settled once
    # after the loop: the same additions in the same order as a charge
    # per group (nothing else charges these ops while a loop runs).  No
    # ``finally``: a failed attempt's ledger and counters are discarded
    # by ``run_with_retries``.  Each returns the input group and record
    # counts; the proven loops also return their output bytes.

    def _call_reduce(self, groups, reduce, emit, key_from_bytes, value_from_bytes):
        """The generic loop: writables in, user ``reduce()``, ``emit``."""
        serialize_byte = self.job.cost_model.serialize_byte
        reduce_record = self.job.user_costs.reduce_record
        work = self.instruments.ledger.work
        shuffle_work = work.get(Op.SHUFFLE, 0.0)
        reduce_work = work.get(Op.REDUCE, 0.0)
        input_groups = input_records = 0
        for key_bytes, value_bytes_list in groups:
            count = len(value_bytes_list)
            if count == 1:
                value_bytes = value_bytes_list[0]
                group_payload = len(key_bytes) + len(value_bytes)
                values = [value_from_bytes(value_bytes)]
            else:
                group_payload = len(key_bytes) + sum(map(len, value_bytes_list))
                values = [value_from_bytes(vb) for vb in value_bytes_list]
            shuffle_work += serialize_byte * group_payload
            key = key_from_bytes(key_bytes)
            input_groups += 1
            input_records += count
            try:
                reduce(key, iter(values), emit)
            except UserCodeError:
                raise
            except Exception as exc:  # noqa: BLE001 - user code boundary
                raise UserCodeError("reduce", str(exc)) from exc
            reduce_work += reduce_record * count
        _settle(work, shuffle_work, reduce_work)
        return input_groups, input_records

    def _pass_through(self, groups, part, key_from_bytes, value_from_bytes):
        """A proven identity ``reduce()``: each group's ``(key, value)``
        pairs are framed straight from the merged bytes, once
        ``from_bytes`` has checked them.  Per the Writable contract a
        pair serializes to its key and value bytes, so that is what the
        pairs count as output."""
        serialize_byte = self.job.cost_model.serialize_byte
        reduce_record = self.job.user_costs.reduce_record
        work = self.instruments.ledger.work
        shuffle_work = work.get(Op.SHUFFLE, 0.0)
        reduce_work = work.get(Op.REDUCE, 0.0)
        input_groups = input_records = output_bytes = 0
        for key_bytes, value_bytes_list in groups:
            count = len(value_bytes_list)
            if count == 1:
                value_bytes = value_bytes_list[0]
                group_payload = len(key_bytes) + len(value_bytes)
                value_from_bytes(value_bytes)
                shuffle_work += serialize_byte * group_payload
                key_from_bytes(key_bytes)
                append_record(part, key_bytes, value_bytes)
                output_bytes += group_payload
            else:
                group_payload = len(key_bytes) + sum(map(len, value_bytes_list))
                for value_bytes in value_bytes_list:
                    value_from_bytes(value_bytes)
                    append_record(part, key_bytes, value_bytes)
                shuffle_work += serialize_byte * group_payload
                key_from_bytes(key_bytes)
                output_bytes += group_payload + (count - 1) * len(key_bytes)
            input_groups += 1
            input_records += count
            reduce_work += reduce_record * count
        _settle(work, shuffle_work, reduce_work)
        return input_groups, input_records, output_bytes

    def _fold(self, records, part, proof, key_from_bytes, value_cls):
        """A proven ``emit(key, W(agg(v.value for v in values)))`` in one
        pass over the key-sorted *records*: per group each value decoded
        once, the key checked, and ``W(total)`` built and serialized,
        failing as the ``reduce()`` that would have built it."""
        serialize_byte = self.job.cost_model.serialize_byte
        reduce_record = self.job.user_costs.reduce_record
        work = self.instruments.ledger.work
        shuffle_work = work.get(Op.SHUFFLE, 0.0)
        reduce_work = work.get(Op.REDUCE, 0.0)
        read, wrapper = int_reader(value_cls), proof.wrapper
        op = None if proof.agg == "sum" else FOLD_OPS[proof.agg]
        input_groups = input_records = output_bytes = 0
        key, count = None, 0
        # A group's first value (the closer's too) decodes after the last group.
        for next_key, value in chain(records, ((END_OF_RUN, value_cls().to_bytes()),)):
            if next_key == key:
                number = read(value)
                total = total + number if op is None else op(total, number)
                count += 1
                size += len(value)
                continue
            if count:
                shuffle_work += serialize_byte * (len(key) + size)
                key_from_bytes(key)
                input_groups += 1
                input_records += count
                try:
                    value_bytes = wrapper(total).to_bytes()
                except Exception as exc:  # noqa: BLE001 - stands in for user reduce()
                    raise UserCodeError("reduce", str(exc)) from exc
                append_record(part, key, value_bytes)
                output_bytes += len(key) + len(value_bytes)
                reduce_work += reduce_record * count
            key, total, count, size = next_key, read(value), 1, len(value)
        _settle(work, shuffle_work, reduce_work)
        return input_groups, input_records, output_bytes


_REDUCER_HOOKS = frozenset({"reduce", "setup", "cleanup"})


def _settle(work: dict, shuffle_work: float, reduce_work: float) -> None:
    """Write a group loop's SHUFFLE/REDUCE totals back to the ledger."""
    if shuffle_work:
        work[Op.SHUFFLE] = shuffle_work
    if reduce_work:
        work[Op.REDUCE] = reduce_work


def proven_reduce(reducer, value_cls: type):
    """What *reducer*'s source proves its ``reduce()`` computes over
    *value_cls* values (``repro.lint.proofs.reducer_proof``), or
    ``None`` for the generic loop — also when the instance itself
    rebinds ``reduce``, ``setup`` or ``cleanup``."""
    from ..lint.proofs import reducer_proof

    if _REDUCER_HOOKS.intersection(getattr(reducer, "__dict__", ())):
        return None
    return reducer_proof(type(reducer), value_cls)
