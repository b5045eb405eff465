"""Per-operation work accounting — the paper's Table I, as code.

Section II of the paper breaks the three MapReduce phases into
fine-grained operations and measures "all the CPU cycles used by any
thread on any machine during the job, then grouping by phase" (Fig. 2).
The :class:`Ledger` is our equivalent of that instrumentation: every
stage of the engine charges work units (abstract cycles) to an
:class:`Op`, and analysis code aggregates ledgers across tasks and
nodes into the serialized-work breakdowns of Figures 2 and 8.

Ops are classified as *user* work (the paper's ``map()``, ``combine()``,
``reduce()``) or *framework* work ("abstraction cost" — everything
else).  The frequency-buffering overhead ops (PROFILE, HASHBUF) are
framework work, so Fig. 8's observation that profiling overhead can eat
the gains falls out of the accounting naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


class Phase(str, Enum):
    """The three coarse phases of Table I."""

    MAP = "map"
    SHUFFLE = "shuffle"
    REDUCE = "reduce"


class Op(str, Enum):
    """Fine-grained operations within the phases (Table I)."""

    # --- map phase ---
    READ = "read"  # reading + deserializing map input
    MAP = "map"  # user map() execution
    EMIT = "emit"  # serializing map output, collecting into the spill buffer
    SORT = "sort"  # sorting spill buffer contents
    COMBINE = "combine"  # user combine() execution
    SPILL_IO = "spill_io"  # writing spills to local disk
    MERGE = "merge"  # end-of-task merge of spill files
    PROFILE = "profile"  # frequency-buffering: Space-Saving + Zipf fit overhead
    HASHBUF = "hashbuf"  # frequency-buffering: frequent-key hash table work
    # --- shuffle phase ---
    NODE_COMBINE = "node_combine"  # in-node folding of map outputs before fetch
    SHUFFLE = "shuffle"  # fetching map outputs over the network + reduce merge
    # --- reduce phase ---
    REDUCE = "reduce"  # user reduce() execution
    OUTPUT = "output"  # writing final output to the DFS


OP_PHASE: dict[Op, Phase] = {
    Op.READ: Phase.MAP,
    Op.MAP: Phase.MAP,
    Op.EMIT: Phase.MAP,
    Op.SORT: Phase.MAP,
    Op.COMBINE: Phase.MAP,
    Op.SPILL_IO: Phase.MAP,
    Op.MERGE: Phase.MAP,
    Op.PROFILE: Phase.MAP,
    Op.HASHBUF: Phase.MAP,
    Op.NODE_COMBINE: Phase.SHUFFLE,
    Op.SHUFFLE: Phase.SHUFFLE,
    Op.REDUCE: Phase.REDUCE,
    Op.OUTPUT: Phase.REDUCE,
}

USER_OPS: frozenset[Op] = frozenset({Op.MAP, Op.COMBINE, Op.REDUCE})
"""Operations executing user-supplied code; the rest is abstraction cost."""

MAP_THREAD_OPS: frozenset[Op] = frozenset({Op.READ, Op.MAP, Op.EMIT, Op.PROFILE, Op.HASHBUF})
"""Map-phase work performed by the *map thread* (Section II-C2)."""

SUPPORT_THREAD_OPS: frozenset[Op] = frozenset({Op.SORT, Op.COMBINE, Op.SPILL_IO})
"""Map-phase work performed by the *support thread* (sort/combine/spill)."""


@dataclass
class Ledger:
    """Accumulates work units per operation.

    Work units are abstract cycles from :class:`~repro.engine.costmodel.
    CostModel`; dividing by a node's speed yields seconds.  Ledgers are
    additive: task ledgers merge into job ledgers.

    Besides the per-op work totals, a ledger carries named *sample
    series* — raw measurement lists such as the network shuffle's
    per-fetch seconds (``shuffle.fetch_seconds``).  Samples merge by
    concatenation, so a job ledger holds every task's measurements in
    task order.  Both parts pickle cleanly; worker processes ship their
    task ledgers back to the parent for merging.
    """

    work: dict[Op, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def charge(self, op: Op, amount: float) -> None:
        """Add *amount* work units to *op* (negative amounts are a bug)."""
        if amount < 0:
            raise ValueError(f"negative work charge for {op}: {amount}")
        if amount:
            self.work[op] = self.work.get(op, 0.0) + amount

    def get(self, op: Op) -> float:
        return self.work.get(op, 0.0)

    def total(self) -> float:
        return sum(self.work.values())

    def user_work(self) -> float:
        return sum(amount for op, amount in self.work.items() if op in USER_OPS)

    def framework_work(self) -> float:
        """Total abstraction cost — the paper's optimization target."""
        return sum(amount for op, amount in self.work.items() if op not in USER_OPS)

    def phase_work(self, phase: Phase) -> float:
        return sum(amount for op, amount in self.work.items() if OP_PHASE[op] is phase)

    def subset(self, ops: Iterable[Op]) -> float:
        wanted = set(ops)
        return sum(amount for op, amount in self.work.items() if op in wanted)

    def add_sample(self, series: str, value: float) -> None:
        """Append one raw measurement to a named sample series."""
        self.samples.setdefault(series, []).append(value)

    def get_samples(self, series: str) -> list[float]:
        return self.samples.get(series, [])

    def merge(self, other: "Ledger") -> "Ledger":
        """Fold *other*'s charges into this ledger (returns self)."""
        for op, amount in other.work.items():
            self.work[op] = self.work.get(op, 0.0) + amount
        for series, values in other.samples.items():
            self.samples.setdefault(series, []).extend(values)
        return self

    def normalized(self) -> dict[Op, float]:
        """Work shares summing to 1.0 — the y-axis of Figures 2 and 8."""
        total = self.total()
        if total <= 0:
            return {}
        return {op: amount / total for op, amount in self.work.items()}

    def as_dict(self) -> dict[str, float]:
        return {op.value: amount for op, amount in self.work.items()}

    @classmethod
    def summed(cls, ledgers: Iterable["Ledger"]) -> "Ledger":
        total = cls()
        for ledger in ledgers:
            total.merge(ledger)
        return total

    def __repr__(self) -> str:
        parts = ", ".join(f"{op.value}={amount:.0f}" for op, amount in sorted(self.work.items()))
        return f"Ledger({parts})"


class TaskInstruments:
    """Bundles a task's ledger with thread-attributed work meters.

    The pipeline model needs to know how much work the *map thread*
    performed between consecutive spills (the produce work ``T_p``), and
    how much *support thread* work each spill cost (``T_c``).  Charging
    through these helpers keeps the ledger and the thread meters in
    lock-step so the two can never drift apart.
    """

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.map_thread_work = 0.0  # cumulative work on the map thread

    def charge_map_thread(self, op: Op, amount: float) -> None:
        """Work performed by the map thread during the spill pipeline
        (read, user map, emit, frequency-buffering overheads)."""
        self.ledger.charge(op, amount)
        self.map_thread_work += amount

    def charge_support_thread(self, op: Op, amount: float) -> float:
        """Work performed by the support thread (sort/combine/spill-write).
        Returns *amount* so spill routines can tally their own T_c."""
        self.ledger.charge(op, amount)
        return amount

    def charge(self, op: Op, amount: float) -> None:
        """Work outside the two-thread pipeline (final merge, shuffle,
        reduce, output)."""
        self.ledger.charge(op, amount)
