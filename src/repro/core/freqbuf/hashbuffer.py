"""The frequent-key table (Section III-A's optimized dataflow).

Tuples whose keys are in the predicted frequent set are folded here
instead of entering the spill buffer.  The table is keyed on
*serialized key bytes*: the collector serializes a key once, probes
once, and either touches the hit's slot or hands the same bytes to the
spill path.  Per key it buffers up to a per-key limit of values, then
applies the user's ``combine()`` eagerly, "which generally yields a
single much-smaller tuple".  If the table still exceeds its byte budget
the aggregated records of the fullest key overflow to the standard
dataflow.  At end of input every key is combined once more and drained
into the standard dataflow — so correctness never depends on the table
(only byte volumes change), which the differential tests exploit.

Two folds, chosen at construction (:func:`frequent_key_table`) by what
the combiner's source proves, not by a setting:

* :class:`FrequentKeyTable` — generic: live value writables per slot,
  the user's ``combine()`` called on them.
* :class:`MonoidKeyTable` — when ``combine()`` is provably ``emit(key,
  W(sum|min|max(v.value for v in values)))`` over an exact-int ``W``
  (:func:`repro.engine.combiner.proven_fold`) a slot holds one raw int
  folded in place.  Every ``combine()`` the generic fold would have run
  is *accounted* — same tallies, occupancy and overflow decisions — and
  ``W(total)`` is built only where the generic fold would have built it.

Neither fold touches counters or the ledger: the table keeps integer
:class:`Tallies` that the collector settles in bulk.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ...engine.api import Combiner
from ...engine.combiner import FOLD_OPS, proven_fold, wrap_folded
from ...errors import UserCodeError
from ...serde.writable import SerdePair, Writable

OverflowSink = Callable[[bytes, bytes], None]
"""Receives serialized records the table cannot hold (the spill path)."""


@dataclass
class Tallies:
    """What happened in the table since the last settlement."""

    hits: int = 0  # tuples folded in
    hit_bytes: int = 0  # their serialized key + value bytes
    combines: int = 0  # eager/overflow combines (charged as hash work)
    combine_in: int = 0  # values consumed by combine(), drain included
    combine_out: int = 0  # records it emitted
    evictions: int = 0  # records sent to the overflow sink


class _Slot:
    """One frequent key's buffered values."""

    __slots__ = ("key", "key_bytes", "held", "count", "bytes", "keyed")

    def __init__(self, key: Writable) -> None:
        self.key = key
        self.key_bytes = key.to_bytes()
        self.held: Any = None  # generic: list of writables; monoid: running int
        self.count = 0  # values held
        self.bytes = 0  # their serialized size
        self.keyed = False  # key bytes counted in the table's occupancy yet?


class FrequentKeyTable:
    """Bounded in-memory accumulator for frequent-key tuples."""

    def __init__(
        self,
        frequent_keys: Iterable[Writable],
        budget_bytes: int,
        overflow_sink: OverflowSink,
        combiner: Combiner | None = None,
        values_per_key_limit: int = 8,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        if values_per_key_limit < 2:
            raise ValueError(
                f"values_per_key_limit must be at least 2, got {values_per_key_limit}"
            )
        self.slots = {slot.key_bytes: slot for slot in map(_Slot, frequent_keys)}
        self.budget_bytes = budget_bytes
        self.overflow_sink = overflow_sink
        self.combiner = combiner
        # Without a combiner values only accumulate until they overflow.
        self._combine_at = values_per_key_limit if combiner is not None else sys.maxsize
        self.occupancy_bytes = 0
        self._tallies = Tallies()

    # ------------------------------------------------------------------
    def add(self, slot: _Slot, value: Writable) -> None:
        """Buffer one tuple whose key hit *slot* (``slots.get(key bytes)``),
        combining/overflowing as needed."""
        size = value.serialized_size()
        if slot.count:
            slot.held.append(value)
        else:
            slot.held = [value]
        self._account(slot, size)

    def _account(self, slot: _Slot, size: int) -> None:
        tallies = self._tallies
        tallies.hits += 1
        tallies.hit_bytes += len(slot.key_bytes) + size
        if not slot.keyed:
            slot.keyed = True
            self.occupancy_bytes += len(slot.key_bytes)
        slot.count += 1
        slot.bytes += size
        self.occupancy_bytes += size
        if slot.count >= self._combine_at or self.occupancy_bytes > self.budget_bytes:
            self._compact(slot)

    def _compact(self, slot: _Slot) -> None:
        """Combine *slot* at its value limit, then evict aggregated
        records until back under budget.

        Evicts the keys currently holding the most bytes — the cheapest
        way to reclaim space while keeping the table's key set intact
        for future hits (only the accumulated values leave).

        This call's combine tallies are published only when it is done:
        an evicted record can cut a spill, which settles the tallies,
        and that spill's produce work must not yet include them.
        """
        combined: list[tuple[int, int]] = []  # (values in, records out) per combine
        if slot.count >= self._combine_at:
            combined.append(self._combine(slot))
        if self.occupancy_bytes > self.budget_bytes:
            fullest = sorted(
                (s for s in self.slots.values() if s.count),
                key=lambda s: (-s.bytes, s.key_bytes),
            )
            for victim in fullest:
                if self.occupancy_bytes <= self.budget_bytes:
                    break
                if self.combiner is not None:
                    combined.append(self._combine(victim))
                for value_bytes in self._held_bytes(victim):
                    self.overflow_sink(victim.key_bytes, value_bytes)
                    self._tallies.evictions += 1
                self.occupancy_bytes -= victim.bytes
                victim.held, victim.count, victim.bytes = None, 0, 0
        tallies = self._tallies  # not before: a settlement may have swapped them
        tallies.combines += len(combined)
        tallies.combine_in += sum(n_in for n_in, _ in combined)
        tallies.combine_out += sum(n_out for _, n_out in combined)

    # --- the fold -----------------------------------------------------
    def _combine(self, slot: _Slot) -> tuple[int, int]:
        """Apply the user's combine() to one slot's held values; returns
        ``(values in, records out)`` for the caller to tally."""
        values = slot.held
        out: list[tuple[Writable, Writable]] = []

        def emit(out_key: Writable, out_value: Writable) -> None:
            out.append((out_key, out_value))

        try:
            self.combiner.combine(slot.key, values, emit)  # type: ignore[union-attr]
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("combine", str(exc)) from exc
        kept = []
        for out_key, out_value in out:
            if out_key == slot.key:
                kept.append(out_value)
            else:
                # A combiner may legally emit under a different key
                # (rare); such records cannot stay in this key's slot
                # and go to the spill path.
                self.overflow_sink(out_key.to_bytes(), out_value.to_bytes())
                self._tallies.evictions += 1
        size = sum(value.serialized_size() for value in kept)
        self.occupancy_bytes += size - slot.bytes
        slot.held, slot.count, slot.bytes = kept, len(kept), size
        return len(values), len(out)

    def _held_bytes(self, slot: _Slot) -> list[bytes]:
        return [value.to_bytes() for value in slot.held]

    # ------------------------------------------------------------------
    def drain(self) -> list[SerdePair]:
        """End of input: combine every key once more and empty the table.

        Returns the aggregated records, serialized, in deterministic
        (key-bytes) order; the caller sends them down the standard
        dataflow.
        """
        out: list[SerdePair] = []
        for key_bytes, slot in sorted(self.slots.items()):
            if self.combiner is not None and slot.count > 1:
                n_in, n_out = self._combine(slot)
                self._tallies.combine_in += n_in
                self._tallies.combine_out += n_out
            if slot.count:
                out.extend((key_bytes, vb) for vb in self._held_bytes(slot))
            slot.held, slot.count, slot.bytes, slot.keyed = None, 0, 0, False
        self.occupancy_bytes = 0
        return out

    def take_tallies(self) -> Tallies:
        """The tallies since the last call, which resets them."""
        taken, self._tallies = self._tallies, Tallies()
        return taken


class MonoidKeyTable(FrequentKeyTable):
    """The table when combine() is a proven int ``sum``/``min``/``max``:
    a slot holds the running aggregate, not the values."""

    def __init__(self, *args, fold: str, value_cls: type, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._op = FOLD_OPS[fold]
        self._value_cls = value_cls

    def add(self, slot: _Slot, value: Writable) -> None:
        number = value.value  # type: ignore[attr-defined]
        slot.held = self._op(slot.held, number) if slot.count else number
        self._account(slot, value.serialized_size())

    def _combine(self, slot: _Slot) -> tuple[int, int]:
        # combine() would leave W(total) as the slot's one value; only
        # the accounting of that happens here.
        size = wrap_folded(self._value_cls, slot.held).serialized_size()
        self.occupancy_bytes += size - slot.bytes
        values, slot.count, slot.bytes = slot.count, 1, size
        return values, 1

    def _held_bytes(self, slot: _Slot) -> list[bytes]:
        return [wrap_folded(self._value_cls, slot.held).to_bytes()]


def frequent_key_table(
    frequent_keys: Iterable[Writable], *, combiner: Combiner | None, value_cls, **table_args
) -> FrequentKeyTable:
    """The table over *frequent_keys* with the fold *combiner*'s source proves."""
    fold = proven_fold(combiner, value_cls)
    if fold is None:
        return FrequentKeyTable(frequent_keys, combiner=combiner, **table_args)
    return MonoidKeyTable(
        frequent_keys, combiner=combiner, fold=fold, value_cls=value_cls, **table_args
    )
