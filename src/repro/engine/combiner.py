"""Combiner plumbing: running user ``combine()`` over serialized groups.

The engine stores records serialized; the user's combiner wants
writables.  :class:`CombinerRunner` bridges the two — deserialize the
group, run the user code, re-serialize the results — while charging the
user-code cost to the ``COMBINE`` ledger op and updating counters.

The runner is the only map-side caller of the user's ``combine()``:
per-spill combining, the end-of-map merge and the node-combine stage
go through :meth:`CombinerRunner.combine_serialized`; the frequency
buffer's fold table (:mod:`repro.engine.foldtable`) through
:meth:`CombinerRunner.call_combine` and counts for itself.

Where the combiner's source *proves* that ``combine()`` is ``emit(key,
W(sum|min|max(v.value for v in values)))`` over an exact-int ``W``
(:func:`proven_fold`), the round trip is skipped: raw ints are folded —
a one-value group's bytes are already what ``combine()`` would emit, a
larger group's values are each decoded once (by ``collector.combine_runs``
in one pass over a sorted run) and ``W(total)`` encoded once — and the
``combine()`` call that did not run is accounted exactly as if it had.
Whether a runner folds is never a setting: an unproven combiner (or one
behind a proxy that hides its source) takes the generic path, which is
therefore the differential oracle of the fold.
"""

from __future__ import annotations

import operator
from typing import Type

from ..errors import UserCodeError
from ..serde.numeric import int_values
from ..serde.writable import SerdePair, Writable
from .api import Combiner
from .costmodel import UserCodeCosts
from .counters import Counter, Counters

#: The provable folds, one value at a time.
FOLD_OPS = {"sum": operator.add, "min": min, "max": max}


def proven_fold(combiner: Combiner | None, value_cls: type | None) -> str | None:
    """``"sum"|"min"|"max"`` when *combiner*'s source proves that fold of
    *value_cls* ints (``repro.lint.proofs.combiner_fold``), else
    ``None``.  Imported on use: a job without a combiner never loads the
    analyzer."""
    if combiner is None:
        return None
    from ..lint.proofs import combiner_fold

    return combiner_fold(type(combiner), value_cls)


def wrap_folded(value_cls: type, total: int) -> Writable:
    """``W(total)``, failing as the combine() that would have built it."""
    try:
        return value_cls(total)
    except Exception as exc:  # noqa: BLE001 - stands in for user combine()
        raise UserCodeError("combine", str(exc)) from exc


#: Equal to no key: closing a one-pass fold's run, it ends the last group.
END_OF_RUN = object()


class CombinerRunner:
    """Applies a user combiner to serialized equal-key groups."""

    def __init__(
        self,
        combiner: Combiner,
        key_cls: Type[Writable],
        value_cls: Type[Writable],
        user_costs: UserCodeCosts,
        counters: Counters,
    ) -> None:
        self.combiner = combiner
        self.key_cls = key_cls
        self.value_cls = value_cls
        self.user_costs = user_costs
        self.counters = counters
        #: The fold the combiner's source proves, or ``None`` (generic).
        self.fold = proven_fold(combiner, value_cls)
        if self.fold is not None:
            from ..lint.proofs import FOLD_AGGS

            # The builtin over a whole group: over exact ints, what the
            # pairwise FOLD_OPS loop computes.
            self.aggregate = FOLD_AGGS[self.fold]

    def combine_serialized(self, key_bytes: bytes, value_bytes_list: list[bytes]) -> list[SerdePair]:
        """Run ``combine()`` on one serialized group; returns serialized output.

        The caller charges :attr:`last_work` to the ledger's COMBINE op.
        """
        if self.fold is None:
            out = self.call_combine(key_bytes, value_bytes_list)
        elif len(value_bytes_list) == 1:  # W(fold([v])) is W(v): the bytes in hand
            out = [(key_bytes, value_bytes_list[0])]
        else:
            total = self.aggregate(int_values(self.value_cls, value_bytes_list))
            out = [(key_bytes, wrap_folded(self.value_cls, total).to_bytes())]
        self.counters.incr(Counter.COMBINE_INPUT_RECORDS, len(value_bytes_list))
        self.counters.incr(Counter.COMBINE_OUTPUT_RECORDS, len(out))
        self.last_work = self.user_costs.combine_record * len(value_bytes_list)
        return out

    def call_combine(self, key_bytes: bytes, value_bytes_list: list[bytes]) -> list[SerdePair]:
        """The round trip: writables in, user ``combine()``, bytes out
        (neither counted nor charged)."""
        key = self.key_cls.from_bytes(key_bytes)
        values = [self.value_cls.from_bytes(vb) for vb in value_bytes_list]

        out: list[SerdePair] = []

        def emit(out_key: Writable, out_value: Writable) -> None:
            out.append((out_key.to_bytes(), out_value.to_bytes()))

        try:
            self.combiner.combine(key, values, emit)
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("combine", str(exc)) from exc
        return out

    last_work: float = 0.0
