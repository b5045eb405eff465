"""The frequency buffer's map-side table of pending values per
serialized key.

The paper's frequent-key hash buffer (§III-A), shaped as Skywriting's
``PartialHashOutputCollector``: a bytes-keyed table of pending values
for a frozen set of admitted keys (the caller probes ``slots.get``),
combined once a key holds *combine_at* values, and bounded by
*budget_bytes*: an insert over budget evicts the fullest keys'
aggregates (ties broken by key bytes) until the table fits.

A slot holds value bytes.  When the combiner's source proves an int
``sum``/``min``/``max`` (:attr:`CombinerRunner.fold`) it holds the
running int instead, and ``W(total)`` is built only where ``combine()``
would have built it; every other combine goes through
:meth:`CombinerRunner.call_combine`.

The table never charges and never calls back into a collector: an
insert and a drain *return* what left the table and what each combine
did, and the caller forwards and accounts them in its own order.

A proven fold over :class:`~repro.serde.numeric.VIntWritable` values
(any int is a valid one, so no fold of them can fail) may also *defer*
its inserts: the caller appends a hit's int to its slot's ``pending``
while :meth:`FoldTable.safe_inserts` says no insert can reach the
budget, and :meth:`FoldTable.catch_up` later leaves every slot as
those one-at-a-time inserts would have — with no eviction in between,
a slot that received ``n`` values since it was empty has combined
``(n - 1) // (combine_at - 1)`` times.
"""

from __future__ import annotations

import sys
from typing import Iterable

from ..serde.numeric import VINT_MAX_SIZE, VIntWritable, vint_size, vint_sizes
from ..serde.writable import SerdePair
from .combiner import FOLD_OPS, CombinerRunner, wrap_folded

#: ``(values in, records out)`` of each ``combine()`` an operation ran.
Combined = list[tuple[int, int]]
#: The records that left the table, and the combines that sent them.
Outcome = tuple[list[SerdePair], Combined]


class Slot:
    """One key's pending values."""

    __slots__ = ("key_bytes", "held", "count", "bytes", "keyed", "pending")

    def __init__(self, key_bytes: bytes) -> None:
        self.key_bytes = key_bytes
        self.held = None  # value bytes (a list), or the proven fold's running int
        self.count = 0  # values held
        self.bytes = 0  # their serialized size
        self.keyed = False  # key bytes counted in the table's occupancy yet?
        self.pending: list[int] = []  # deferred inserts (FoldTable.catch_up)


def _fullness(slot: Slot) -> tuple[int, bytes]:
    return -slot.bytes, slot.key_bytes


class FoldTable:
    """Pending values per admitted key, combined at *combine_at* and
    bounded by *budget_bytes* (see the module docstring)."""

    def __init__(
        self,
        runner: CombinerRunner | None,
        combine_at: int,
        *,
        keys: Iterable[bytes],
        budget_bytes: int,
    ) -> None:
        if combine_at < 2:
            raise ValueError(f"combine_at must be at least 2, got {combine_at}")
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.runner = runner
        #: The proven fold (``"sum"|"min"|"max"``): slots hold ints.
        self.fold = runner.fold if runner is not None else None
        self._op = FOLD_OPS[self.fold] if self.fold is not None else None
        # Without a combiner values only accumulate until they leave.
        self._combine_at = combine_at if runner is not None else sys.maxsize
        self.budget_bytes = budget_bytes
        self.slots: dict[bytes, Slot] = {kb: Slot(kb) for kb in keys}
        self.occupancy_bytes = 0
        # Deferred inserts: the most one insert can grow the table (its
        # key's bytes and the longest vint; a fold's combine never grows
        # a slot), and whether every slot at its fullest fits.
        self._growth = 0
        if self.fold is not None and runner.value_cls is VIntWritable:
            self._growth = max(map(len, self.slots), default=0) + VINT_MAX_SIZE
            self._never_full = (
                sum(map(len, self.slots)) + len(self.slots) * combine_at * VINT_MAX_SIZE
                <= budget_bytes
            )

    def add(self, slot: Slot, item: bytes | int, size: int) -> Outcome | None:
        """Hold one more value of *slot*'s key: *item* is its bytes, or
        its int under a proven fold; *size* its serialized size.

        Returns ``None``, or — when the insert combined or evicted — the
        records that left the table (a combine's re-keyed output, then
        each victim's aggregates) and the combines it ran."""
        op = self._op
        if not slot.count:
            slot.held = [item] if op is None else item
        elif op is None:
            slot.held.append(item)
        else:
            slot.held = op(slot.held, item)
        if not slot.keyed:
            slot.keyed = True
            self.occupancy_bytes += len(slot.key_bytes)
        slot.count += 1
        slot.bytes += size
        self.occupancy_bytes += size
        if slot.count >= self._combine_at or self.occupancy_bytes > self.budget_bytes:
            return self._compact(slot)
        return None

    def safe_inserts(self) -> int:
        """How many inserts may be deferred to :meth:`catch_up` before one
        could cross the budget (``sys.maxsize`` when none ever can; 0
        when this table does not defer).  Read right after a catch-up."""
        if not self._growth:
            return 0
        if self._never_full:
            return sys.maxsize
        return max(0, self.budget_bytes - self.occupancy_bytes) // self._growth

    def catch_up(self) -> tuple[int, int, int]:
        """Insert every slot's ``pending`` ints as :meth:`add` would have,
        one at a time, none crossing the budget (:meth:`safe_inserts`).

        Returns ``(values, their key + value bytes, combines)``; each
        combine took ``combine_at`` values in and one record out."""
        values = in_bytes = combines = 0
        per_combine = self._combine_at - 1  # values an emptied-to-one slot takes
        for slot in self.slots.values():
            pending = slot.pending
            if not pending:
                continue
            slot.pending = []
            n, size = len(pending), vint_sizes(pending)
            values += n
            in_bytes += n * len(slot.key_bytes) + size
            if not slot.keyed:
                slot.keyed = True
                self.occupancy_bytes += len(slot.key_bytes)
            first = per_combine + 1 - slot.count  # values up to the next combine
            if n < first:
                slot.held = self._fold(slot.held, pending)
                slot.count += n
                held_bytes = slot.bytes + size
            else:
                last = first + (n - first) // per_combine * per_combine
                combines += 1 + (n - first) // per_combine
                # The last combine left W(total) as the slot's one value.
                total, tail = self._fold(slot.held, pending[:last]), pending[last:]
                slot.held = self._fold(total, tail) if tail else total
                slot.count = 1 + len(tail)
                held_bytes = vint_size(total) + vint_sizes(tail)
            self.occupancy_bytes += held_bytes - slot.bytes
            slot.bytes = held_bytes
        return values, in_bytes, combines

    def _fold(self, held: int | None, values: list[int]) -> int:
        total = self.runner.aggregate(values)
        return total if held is None else self._op(held, total)

    def _compact(self, slot: Slot) -> Outcome:
        """Combine *slot* at its value limit, then evict aggregates until
        back under budget.

        The victims are the keys holding the most bytes — the cheapest
        way to reclaim space while the key set stays intact for future
        hits (only the values leave).  A victim is combined before it
        leaves, even a lone value."""
        left: list[SerdePair] = []
        combined: Combined = []
        if slot.count >= self._combine_at:
            combined.append(self._combine(slot, left))
        if self.occupancy_bytes > self.budget_bytes:
            for victim in sorted((s for s in self.slots.values() if s.count), key=_fullness):
                if self.occupancy_bytes <= self.budget_bytes:
                    break
                if self.runner is not None:
                    combined.append(self._combine(victim, left))
                left.extend((victim.key_bytes, value) for value in self._held_bytes(victim))
                self.occupancy_bytes -= victim.bytes
                victim.held, victim.count, victim.bytes = None, 0, 0
        return left, combined

    def _combine(self, slot: Slot, rekeyed: list[SerdePair]) -> tuple[int, int]:
        """``combine()`` one slot's values in place; output under another
        key cannot stay in the slot and goes to *rekeyed*."""
        values = slot.count
        if self._op is not None:
            # combine() would leave W(total) as the slot's one value;
            # only the accounting of that happens here.
            size = wrap_folded(self.runner.value_cls, slot.held).serialized_size()
            self.occupancy_bytes += size - slot.bytes
            slot.count, slot.bytes = 1, size
            return values, 1
        key_bytes = slot.key_bytes
        out = self.runner.call_combine(key_bytes, slot.held)
        kept = [value for key, value in out if key == key_bytes]
        if len(kept) < len(out):
            rekeyed.extend(record for record in out if record[0] != key_bytes)
        size = sum(map(len, kept))
        self.occupancy_bytes += size - slot.bytes
        slot.held, slot.count, slot.bytes = kept, len(kept), size
        return values, len(out)

    def _held_bytes(self, slot: Slot) -> list[bytes]:
        if self._op is None:
            return slot.held
        return [wrap_folded(self.runner.value_cls, slot.held).to_bytes()]

    def drain(self) -> tuple[list[SerdePair], list[Outcome]]:
        """Combine every key holding more than one value and empty the
        table: returns the aggregates in key-bytes order, and per combine
        the records it re-keyed and its ``(values in, records out)``."""
        aggregates: list[SerdePair] = []
        outcomes: list[Outcome] = []
        combines = self.runner is not None
        for key_bytes, slot in sorted(self.slots.items()):
            if combines and slot.count > 1:
                rekeyed: list[SerdePair] = []
                outcomes.append((rekeyed, [self._combine(slot, rekeyed)]))
            if slot.count:
                aggregates.extend((key_bytes, value) for value in self._held_bytes(slot))
            slot.held, slot.count, slot.bytes, slot.keyed = None, 0, 0, False
        self.occupancy_bytes = 0
        return aggregates, outcomes
