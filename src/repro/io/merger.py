"""K-way merge of sorted record runs, with optional combining.

Both merge sites of the MapReduce pipeline use this module:

* the **map-side final merge**, which merges all spill segments of one
  partition and applies the user's ``combine()`` to equal-key runs;
* the **reduce-side merge**, which merges fetched map-output segments
  and feeds equal-key groups to ``reduce()``.

The merge is one *stable* ``list.sort`` on the key bytes over the runs
concatenated in stream order.  A heap-based k-way merge orders records
by ``(key, stream id, position in stream)``; in the concatenation every
record of stream *i* precedes every record of stream *i+1* and each
stream keeps its own order, so a stable sort by key alone breaks key
ties the same way and yields the identical sequence.  CPython's Timsort
detects the k presorted runs and merges them (galloping) in C, so no
record passes through a Python-level loop.

The returned :class:`MergeStats` is what the cost model charges a k-ary
heap merge — comparisons, records and bytes moved — computed in closed
form from the run count and the record count, not from the comparisons
the sort happened to make.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from ..serde.writable import SerdePair

_KEY = itemgetter(0)


@dataclass
class MergeStats:
    """Work accounting for one merge pass.

    ``streams`` counts every run handed to the merge, empty ones
    included; the ``comparisons`` charge counts only the non-empty ones
    (an empty stream never enters a heap).
    """

    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    comparisons: int = 0
    streams: int = 0


def _payload_bytes(records: list[SerdePair]) -> int:
    return sum(len(key) + len(value) for key, value in records)


def merge_runs(
    runs: list[Iterable[SerdePair]],
    stats: MergeStats | None = None,
) -> list[SerdePair]:
    """Merge sorted runs of serialized records into one sorted list.

    Equal keys keep stream order, then position within their stream (see
    the module docstring).  *stats* is filled in closed form: every
    record is charged ``int(max(1.0, 2·log2(max(2, k))))`` comparisons,
    the sift cost of a heap of the ``k`` non-empty runs, matching how
    the cost model charges merges.  A single run is copied through and
    charged no comparisons.
    """
    if stats is None:
        stats = MergeStats()
    merged: list[SerdePair] = []
    non_empty = 0
    for run in runs:
        before = len(merged)
        merged.extend(run)
        non_empty += len(merged) > before
    if non_empty > 1:
        merged.sort(key=_KEY)

    count = len(merged)
    size = _payload_bytes(merged)
    stats.streams = len(runs)
    stats.records_in += count
    stats.records_out += count
    stats.bytes_in += size
    stats.bytes_out += size
    if len(runs) != 1:
        stats.comparisons += count * int(max(1.0, 2.0 * log2(max(2, non_empty))))
    return merged


GroupFn = Callable[[bytes, list[bytes]], list[SerdePair]]
"""Combiner callback: (key bytes, value bytes list) -> serialized records."""


def merge_and_combine(
    runs: list[Iterable[SerdePair]],
    combine: GroupFn | None,
    stats: MergeStats | None = None,
) -> list[SerdePair]:
    """Merge sorted runs, applying *combine* to each equal-key group.

    With ``combine=None`` this is exactly :func:`merge_runs`: nothing is
    grouped and the stats are the merge's own.  Otherwise the input side
    of *stats* is the merge's and the output side counts what *combine*
    returned.  The output remains sorted because combining preserves
    each group's key.
    """
    if stats is None:
        stats = MergeStats()
    merged = merge_runs(runs, stats)
    if combine is None:
        return merged

    combined: list[SerdePair] = []
    for key, values in group_sorted(merged):
        combined.extend(combine(key, values))
    stats.records_out = len(combined)
    stats.bytes_out = _payload_bytes(combined)
    return combined


def group_sorted(records: Iterable[SerdePair]) -> Iterator[tuple[bytes, list[bytes]]]:
    """Group a key-sorted record stream into (key, [values]) runs."""
    current_key: bytes | None = None
    current_values: list[bytes] = []
    for key, value in records:
        if key != current_key:
            if current_key is not None:
                yield current_key, current_values
            current_key = key
            current_values = [value]
        else:
            current_values.append(value)
    if current_key is not None:
        yield current_key, current_values


def group_sorted_by(
    records: Iterable[SerdePair],
    group_key: Callable[[bytes], bytes],
) -> Iterator[tuple[bytes, list[SerdePair]]]:
    """Group a key-sorted stream by a *prefix* of the key (secondary sort).

    Yields ``(first_full_key, [(full_key, value), ...])`` per group; the
    records inside a group keep their full-key sort order, which is the
    whole point of the pattern (e.g. key = ``url|timestamp`` grouped by
    ``url`` delivers each URL's events time-ordered).
    """
    current_group: bytes | None = None
    first_key: bytes | None = None
    current: list[SerdePair] = []
    for key, value in records:
        group = group_key(key)
        if group != current_group:
            if first_key is not None:
                yield first_key, current
            current_group = group
            first_key = key
            current = [(key, value)]
        else:
            current.append((key, value))
    if first_key is not None:
        yield first_key, current
