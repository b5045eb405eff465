"""Real network shuffle (``repro.shuffle``).

The engine's default shuffle hands reducers map-output segments by
direct in-process reads.  This package replaces that transport with
real localhost TCP; the pricing stays the engine's
(:class:`~repro.engine.shuffle.ShuffleService` charges ``Op.SHUFFLE``
from bytes in both modes, so a job's ledger does not depend on it):

``server``
    A per-node :class:`~repro.shuffle.server.ShuffleServer` serves
    framed, CRC-checked partition segments from map outputs registered
    in-process (in-memory disks by the driver; ``FileDisk``-backed
    outputs by the worker daemon that wrote them and runs the server).
``fetcher``
    A reduce-side :class:`~repro.shuffle.fetcher.FetcherPool` pulls one
    partition's segments concurrently, in map order, with a bounded
    in-flight window, retrying with exponential backoff +
    deterministic jitter on connection failure, timeout, or CRC
    mismatch.  The engine's shuffle service reads from it and keeps
    each fetch's measured seconds, bytes and wait in the ledger's
    samples and the fetch counters.
``wire``
    The frame format, shared with the cluster runtime's master/worker
    protocol.

The server's deterministic fault injection (refuse / drop / truncate /
delay a configurable fraction of fetches, so the retry paths are
exercised on demand) is the unified plan's ``shuffle.*`` rule, read at
the :func:`~repro.faults.runtime.shuffle_fault` point.

Select with ``repro.shuffle.mode = net`` (CLI: ``--shuffle net
--shuffle-fetchers N``); the default ``mem`` reads segments directly.
"""

from __future__ import annotations

from ..errors import ShuffleError, ShuffleTransportError
from .fetcher import FetcherPool, FetchPlanEntry, FetchResult, RetryPolicy
from .server import ShuffleHostStats, ShuffleServer

__all__ = [
    "FetchPlanEntry",
    "FetchResult",
    "FetcherPool",
    "RetryPolicy",
    "ShuffleError",
    "ShuffleHostStats",
    "ShuffleServer",
    "ShuffleTransportError",
]
