"""Reduce-side shuffle fetchers: parallel, bounded, fault-tolerant.

A :class:`FetcherPool` pulls one reduce partition's segments from the
shuffle servers over TCP.  Concurrency is a fixed fetcher-thread count
with a bounded in-flight *window* (``2 x fetchers`` outstanding
requests), so a reducer never holds more than a window of segments
ahead of the merge that consumes them — the backpressure half of
Hadoop's ``ShuffleScheduler``.  Results are handed to the consumer **in
map-task order** regardless of completion order, which keeps the
downstream budgeted merge byte-identical to the in-process shuffle.

Each fetch retries transport failures — connection refused/dropped,
read timeout, framing violations, CRC mismatch, explicit ``BUSY`` —
with exponential backoff and *deterministic* jitter (a stable hash of
task/partition/attempt, so runs are reproducible and tests are not
flaky).  Exhausting the attempt budget raises a clean
:class:`~repro.errors.ShuffleError` naming the segment and the last
failure; nothing hangs, because every socket operation carries a
timeout.

Every result reports the winning attempt's measured wall time
(connect -> bytes decoded) and the wait lost to failed attempts +
backoff.  The engine's :class:`~repro.engine.shuffle.ShuffleService`
keeps them next to the cost model — the ledger's
``shuffle.fetch_seconds`` / ``fetch_bytes`` / ``wait_seconds`` samples
and the fetch counters the idle report reads — and prices the segments
as it prices direct reads.
"""

from __future__ import annotations

import socket
import time
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from ..config import JobConf, Keys
from ..errors import ShuffleError, ShuffleTransportError
from ..io.compression import decode_segment
from . import wire

#: Connect and per-socket-operation timeout of one fetch attempt.
FETCH_TIMEOUT_SECONDS = 10.0


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and backoff curve for one fetch."""

    max_attempts: int = 4
    backoff_base_seconds: float = 0.02
    backoff_max_seconds: float = 0.25
    timeout_seconds: float = FETCH_TIMEOUT_SECONDS

    @classmethod
    def from_conf(cls, conf: JobConf) -> "RetryPolicy":
        return cls(
            max_attempts=conf.get_positive_int(Keys.SHUFFLE_FETCH_ATTEMPTS),
            backoff_base_seconds=conf.get_float(Keys.SHUFFLE_BACKOFF_BASE),
            backoff_max_seconds=conf.get_float(Keys.SHUFFLE_BACKOFF_MAX),
        )

    def backoff(self, task_id: str, partition: int, attempt: int) -> float:
        """Exponential backoff with deterministic jitter in [0.5x, 1.5x]."""
        base = min(
            self.backoff_max_seconds,
            self.backoff_base_seconds * (2 ** (attempt - 1)),
        )
        digest = zlib.crc32(f"{task_id}:{partition}:{attempt}".encode())
        jitter = 0.5 + digest / 0xFFFFFFFF  # [0.5, 1.5]
        return base * jitter


@dataclass(frozen=True)
class FetchPlanEntry:
    """One segment to fetch: where it lives and what to ask for."""

    address: tuple[str, int]
    map_task_id: str
    partition: int


@dataclass
class FetchResult:
    """One fetched segment plus its measurements."""

    entry: FetchPlanEntry
    payload: bytes  # decompressed record-frame bytes
    stored_length: int  # what the wire carried
    records: int
    seconds: float  # wall time of the winning attempt
    attempts: int  # attempts consumed (>= 1)
    wait_seconds: float  # failed-attempt time + backoff sleeps

    @property
    def retries(self) -> int:
        return self.attempts - 1


def _fetch_once(entry: FetchPlanEntry, timeout: float) -> tuple[dict, bytes]:
    """One attempt: connect, request, receive, CRC-check.  Raises
    :class:`ShuffleTransportError` on any transport-level failure."""
    try:
        with socket.create_connection(entry.address, timeout=timeout) as sock:
            sock.settimeout(timeout)
            wire.send_json(sock, wire.OP_GET, {
                "task": entry.map_task_id,
                "partition": entry.partition,
            })
            opcode, payload = wire.recv_frame(sock)
    except (OSError, socket.timeout) as exc:
        raise ShuffleTransportError(
            f"fetch of {entry.map_task_id}/p{entry.partition} from "
            f"{entry.address[0]}:{entry.address[1]} failed: {exc}"
        ) from exc
    if opcode == wire.OP_ERR:
        err = wire.decode_json(payload)
        raise ShuffleTransportError(
            f"server rejected {entry.map_task_id}/p{entry.partition}: "
            f"{err.get('code', '?')} {err.get('message', '')}"
        )
    if opcode != wire.OP_DATA:
        raise ShuffleTransportError(f"unexpected opcode {opcode:#x} in response")
    header, stored = wire.decode_data(payload)
    if len(stored) != int(header["length"]):
        raise ShuffleTransportError(
            f"segment {entry.map_task_id}/p{entry.partition}: got "
            f"{len(stored)} bytes, header declares {header['length']}"
        )
    if zlib.crc32(stored) != int(header["crc"]):
        raise ShuffleTransportError(
            f"checksum mismatch on {entry.map_task_id}/p{entry.partition}: "
            "the segment was corrupted in flight"
        )
    return header, stored


def fetch_segment(entry: FetchPlanEntry, policy: RetryPolicy) -> FetchResult:
    """Fetch one segment with retries + backoff; measure everything."""
    wait_seconds = 0.0
    last_error: ShuffleTransportError | None = None
    for attempt in range(1, policy.max_attempts + 1):
        start = time.perf_counter()
        try:
            header, stored = _fetch_once(entry, policy.timeout_seconds)
            payload = (
                decode_segment(stored) if header.get("codec") is not None else stored
            )
            return FetchResult(
                entry=entry,
                payload=payload,
                stored_length=len(stored),
                records=int(header.get("records", 0)),
                seconds=time.perf_counter() - start,
                attempts=attempt,
                wait_seconds=wait_seconds,
            )
        except ShuffleTransportError as exc:
            wait_seconds += time.perf_counter() - start
            last_error = exc
            if attempt < policy.max_attempts:
                pause = policy.backoff(entry.map_task_id, entry.partition, attempt)
                wait_seconds += pause
                time.sleep(pause)
    raise ShuffleError(
        f"fetch of {entry.map_task_id}/p{entry.partition} from "
        f"{entry.address[0]}:{entry.address[1]} failed after "
        f"{policy.max_attempts} attempts; last error: {last_error}"
    )


class FetcherPool:
    """Fetches a plan's segments concurrently, yielding them in order.

    ``fetchers`` threads run fetches; at most ``2 x fetchers`` requests
    are outstanding (submitted but not yet consumed), so memory held in
    fetched-but-unmerged segments stays bounded.  ``next_result()``
    returns plan entries strictly in plan order, blocking on the next
    one while later fetches proceed in the background.
    """

    def __init__(
        self, plan: list[FetchPlanEntry], fetchers: int, policy: RetryPolicy
    ) -> None:
        if fetchers < 1:
            raise ShuffleError(f"fetcher count must be >= 1, got {fetchers}")
        self.plan = plan
        self.policy = policy
        self.fetchers = fetchers
        self.window = 2 * fetchers
        self._pool: ThreadPoolExecutor | None = None
        self._futures: list[Future] = []
        self._submitted = 0
        self._consumed = 0

    @classmethod
    def for_partition(cls, map_results: list, partition: int, conf: JobConf) -> "FetcherPool":
        """The (unstarted) pool that fetches *partition* of every map
        output in *map_results*, in their order."""
        plan: list[FetchPlanEntry] = []
        for result in map_results:
            if result.serve_address is None:
                raise ShuffleError(
                    f"map output {result.task_id!r} was never registered with "
                    "a shuffle server; the executor must start one when "
                    f"{Keys.SHUFFLE_MODE} = net"
                )
            plan.append(FetchPlanEntry(result.serve_address, result.task_id, partition))
        return cls(
            plan,
            fetchers=conf.get_positive_int(Keys.SHUFFLE_FETCHERS),
            policy=RetryPolicy.from_conf(conf),
        )

    def start(self) -> "FetcherPool":
        self._pool = ThreadPoolExecutor(
            max_workers=self.fetchers, thread_name_prefix="shuffle-fetcher"
        )
        while self._submitted < min(self.window, len(self.plan)):
            self._submit_next()
        return self

    def _submit_next(self) -> None:
        assert self._pool is not None
        entry = self.plan[self._submitted]
        self._futures.append(self._pool.submit(fetch_segment, entry, self.policy))
        self._submitted += 1

    def next_result(self) -> FetchResult:
        """The next segment in plan order (blocks until fetched)."""
        if self._pool is None:
            raise ShuffleError("fetcher pool not started")
        if self._consumed >= len(self.plan):
            raise ShuffleError("fetch plan exhausted")
        future = self._futures[self._consumed]
        self._consumed += 1
        if self._submitted < len(self.plan):
            self._submit_next()
        return future.result()

    def close(self) -> None:
        """Shut the pool down; pending fetches are cancelled, running
        ones complete (every attempt is timeout-bounded, so this cannot
        hang)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
