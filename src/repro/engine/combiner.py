"""Combiner plumbing: running user ``combine()`` over serialized groups.

The engine stores records serialized; the user's combiner wants
writables.  :class:`CombinerRunner` bridges the two — deserialize the
group, run the user code, re-serialize the results — while charging the
user-code cost to the ``COMBINE`` ledger op and updating counters.

The runner serves the serialized combine sites: per-spill combining,
the end-of-map merge and the node-combine stage.  The frequency buffer
holds live writables (or folds raw ints) and calls the combiner itself
(:mod:`repro.core.freqbuf.hashbuffer`).
"""

from __future__ import annotations

from typing import Type

from ..errors import UserCodeError
from ..serde.writable import SerdePair, Writable
from .api import Combiner
from .costmodel import UserCodeCosts
from .counters import Counter, Counters


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

    def combine_serialized(self, key_bytes: bytes, value_bytes_list: list[bytes]) -> list[SerdePair]:
        """Run ``combine()`` on one serialized group; returns serialized output.

        The caller charges :attr:`last_work` to the ledger's COMBINE op.
        """
        key = self.key_cls.from_bytes(key_bytes)
        values = [self.value_cls.from_bytes(vb) for vb in value_bytes_list]

        out: list[SerdePair] = []

        def emit(out_key: Writable, out_value: Writable) -> None:
            out.append((out_key.to_bytes(), out_value.to_bytes()))

        try:
            self.combiner.combine(key, values, emit)
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("combine", str(exc)) from exc

        self.counters.incr(Counter.COMBINE_INPUT_RECORDS, len(values))
        self.counters.incr(Counter.COMBINE_OUTPUT_RECORDS, len(out))
        self.last_work = self.user_costs.combine_record * len(values)
        return out

    last_work: float = 0.0
