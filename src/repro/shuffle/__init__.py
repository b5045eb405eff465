"""Real network shuffle (``repro.shuffle``).

The engine's default shuffle hands reducers map-output segments by
direct in-process reads and only *models* the network.  This package
replaces the transport with real localhost TCP:

``server``
    A per-node :class:`~repro.shuffle.server.ShuffleServer` serves
    framed, CRC-checked partition segments from map outputs registered
    in-process (in-memory disks by the driver; ``FileDisk``-backed
    outputs by the worker daemon that wrote them and runs the server).
``fetcher``
    A reduce-side fetcher pool pulls segments concurrently with a
    bounded in-flight window, retrying with exponential backoff +
    deterministic jitter on connection failure, timeout, or CRC
    mismatch.
``service``
    :class:`~repro.shuffle.service.NetShuffleService` feeds the fetched
    segments into the engine's MergeManager-style budgeted merge and
    charges ``Op.SHUFFLE`` from measured socket bytes and wall time.

The server's deterministic fault-injection plan (refuse / drop /
truncate / delay a configurable fraction of fetches, so the retry paths
are exercised on demand) lives in :mod:`repro.faults.shuffle`.

Select with ``repro.shuffle.mode = net`` (CLI: ``--shuffle net
--shuffle-fetchers N``); the default ``mem`` keeps the modelled path.
"""

from __future__ import annotations

from ..errors import ShuffleError, ShuffleTransportError
from .fetcher import FetcherPool, FetchPlanEntry, FetchResult, RetryPolicy
from .server import ShuffleHostStats, ShuffleServer
from .service import NetShuffleService

__all__ = [
    "FetchPlanEntry",
    "FetchResult",
    "FetcherPool",
    "NetShuffleService",
    "RetryPolicy",
    "ShuffleError",
    "ShuffleHostStats",
    "ShuffleServer",
    "ShuffleTransportError",
]
