"""The frequency-buffering map-output collector (Sections III-A to III-C).

Wraps a :class:`~repro.engine.collector.StandardCollector` and runs the
paper's two-stage dataflow:

1. *(optional)* **pre-profiling** — exact-count a ~1% prefix, fit the
   Zipf exponent α, derive the sampling fraction ``s``
   (:mod:`repro.core.freqbuf.autotune`);
2. **profiling** — for the first ``s`` of the task's input, all output
   takes the standard path while a Space-Saving summary tracks key
   frequencies;
3. **optimization** — the summary's top-k become the frozen frequent
   set: the admission of a :class:`~repro.engine.foldtable.FoldTable`
   keyed on serialized key bytes, whose budget evicts the fullest keys'
   aggregates to the standard path.  Each emit serializes its key once
   and probes once: a hit is folded into its slot (combined eagerly at
   :data:`VALUES_PER_KEY_LIMIT` values, bypassing sort/spill), a miss
   hands the same bytes to the standard path.  At flush the table
   drains its aggregates into the standard path so the final map
   output is complete and sorted.

The optimization stage charges nothing per record.  Hits, misses and
combines accumulate as integers and are *settled* — counters and the
``HASHBUF``/``COMBINE`` ledger charges, the same totals a per-record
charge would reach — at flush and before every spill reads the
map-thread produce work, so the spill-matcher sees the same ``T_p``.
A hit the table may defer (:meth:`FoldTable.safe_inserts`) is only its
int appended to the slot; the table catches up at each settlement.

Per Section III-B the discovered frequent-key set is shared across the
map tasks of one node through *shared_state*: the first task profiles,
the rest skip straight to the optimization stage.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Any

from ...config import Keys
from ...engine.collector import MapOutputCollector, StandardCollector
from ...engine.combiner import CombinerRunner
from ...engine.counters import Counter, Counters
from ...engine.foldtable import Combined, FoldTable, Slot
from ...engine.instrumentation import Op, TaskInstruments
from ...engine.job import JobSpec
from ...io.spillfile import SpillIndex
from ...serde.writable import Writable
from .autotune import PreProfiler
from .spacesaving import SpaceSaving

SHARED_FREQUENT_KEYS = "freqbuf.frequent_keys"
SHARED_ALPHA = "freqbuf.alpha"
SHARED_SAMPLE_FRACTION = "freqbuf.sample_fraction"

#: A frequent key's values are combined eagerly once this many accumulate.
VALUES_PER_KEY_LIMIT = 8
#: Share of a task's input the autotuner's pre-profile stage reads
#: before it decides the sampling fraction.
PREPROFILE_FRACTION = 0.01


@dataclass
class Tallies:
    """What the table did since the last settlement."""

    hits: int = 0  # tuples folded in
    hit_bytes: int = 0  # their serialized key + value bytes
    combines: int = 0  # eager/overflow combines (charged as hash work)
    combine_in: int = 0  # values consumed by combine(), drain included
    combine_out: int = 0  # records it emitted
    evictions: int = 0  # records sent down the spill path

    def publish(self, left: int, combined: Combined, eager: bool = True) -> None:
        """Tally *left* records forwarded and *combined*; the drain's
        combines (``eager=False``) are user work but not hash work."""
        self.evictions += left
        if eager:
            self.combines += len(combined)
        self.combine_in += sum(n_in for n_in, _ in combined)
        self.combine_out += sum(n_out for _, n_out in combined)


class Stage(Enum):
    PREPROFILE = "preprofile"
    PROFILE = "profile"
    OPTIMIZE = "optimize"


class FrequencyBufferingCollector(MapOutputCollector):
    """Two-stage frequent-key-aware collector."""

    def __init__(
        self,
        inner: StandardCollector,
        *,
        k: int,
        sample_fraction: float,
        autotune: bool,
        hash_budget_bytes: int,
        instruments: TaskInstruments,
        counters: Counters,
        combiner_runner: CombinerRunner | None,
        shared_state: dict[str, Any],
        share_across_tasks: bool = True,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError(f"sample fraction must be in (0, 1], got {sample_fraction}")
        self.inner = inner
        self.k = k
        self.sample_fraction = sample_fraction
        self.autotune = autotune
        self.hash_budget_bytes = max(1, hash_budget_bytes)
        self.instruments = instruments
        self.counters = counters
        self.combiner_runner = combiner_runner
        self.shared_state = shared_state
        self.share_across_tasks = share_across_tasks

        self._input_fraction = 0.0
        self._emitted = 0
        self._summary: SpaceSaving[Writable] = SpaceSaving(max(2 * k, 16))
        self._preprofiler: PreProfiler | None = None
        self._table: FoldTable | None = None
        self._folds = False  # slots hold the proven fold's ints
        # Hits that may still be deferred, and the count at the last
        # catch-up: the difference is pending in the table's slots.
        self._safe_hits = self._safe_hits_granted = 0
        self._tallies = Tallies()
        self._misses = 0
        self.alpha: float | None = None

        shared_keys = (
            self.shared_state.get(SHARED_FREQUENT_KEYS) if share_across_tasks else None
        )
        if shared_keys is not None:
            # A sibling task on this node already profiled: skip straight
            # to the optimization stage (Section III-B).
            self.stage = Stage.OPTIMIZE
            self.alpha = self.shared_state.get(SHARED_ALPHA)
            self._activate(set(shared_keys))
        elif autotune:
            self.stage = Stage.PREPROFILE
        else:
            self.stage = Stage.PROFILE

    # ------------------------------------------------------------------
    # factory
    # ------------------------------------------------------------------
    @classmethod
    def from_conf(
        cls,
        inner: StandardCollector,
        job: JobSpec,
        hash_budget_bytes: int,
        instruments: TaskInstruments,
        counters: Counters,
        combiner_runner: CombinerRunner | None,
        shared_state: dict[str, Any],
    ) -> "FrequencyBufferingCollector":
        conf = job.conf
        return cls(
            inner,
            k=conf.get_positive_int(Keys.FREQBUF_K),
            sample_fraction=conf.get_fraction(Keys.FREQBUF_SAMPLE_FRACTION),
            autotune=conf.get_bool(Keys.FREQBUF_AUTOTUNE),
            hash_budget_bytes=hash_budget_bytes,
            instruments=instruments,
            counters=counters,
            combiner_runner=combiner_runner,
            shared_state=shared_state,
            share_across_tasks=conf.get_bool(Keys.FREQBUF_SHARE_ACROSS_TASKS),
        )

    # ------------------------------------------------------------------
    # MapOutputCollector interface
    # ------------------------------------------------------------------
    @property
    def timeline(self):
        """The pipeline timeline lives with the standard (spill) path."""
        return self.inner.timeline

    @property
    def spill_indices(self) -> list[SpillIndex]:
        return self.inner.spill_indices

    def note_input_progress(self, fraction: float) -> None:
        self._input_fraction = fraction
        if self.stage is Stage.PREPROFILE and fraction >= PREPROFILE_FRACTION:
            self._finish_preprofile()
        if self.stage is Stage.PROFILE and fraction >= self.sample_fraction:
            self._finish_profile()

    def collect(self, key: Writable, value: Writable) -> None:
        table = self._table
        if table is not None:  # Stage.OPTIMIZE
            key_bytes = key.to_bytes()
            slot = table.slots.get(key_bytes)
            if slot is None:
                self._misses += 1
                self.inner.collect_serialized(key_bytes, value.to_bytes())
            elif self._safe_hits:
                self._safe_hits -= 1
                slot.pending.append(value.value)  # type: ignore[attr-defined]
            else:
                self._insert(table, slot, key_bytes, value)
            return

        # Profiling stages: standard dataflow + frequency observation.
        self._emitted += 1
        model = self.inner.cost_model
        if self.stage is Stage.PREPROFILE:
            if self._preprofiler is None:
                self._init_preprofiler()
            self._preprofiler.observe(key)  # type: ignore[union-attr]
            self.instruments.charge_map_thread(Op.PROFILE, model.profile_record)
        else:  # Stage.PROFILE
            self._summary.observe(key)
            self.instruments.charge_map_thread(Op.PROFILE, model.profile_record)
            self.counters.incr(Counter.FREQBUF_PROFILED_RECORDS)
        self.inner.collect(key, value)

    def _insert(self, table: FoldTable, slot: Slot, key_bytes: bytes, value: Writable) -> None:
        """A hit with no deferral left: catch up and defer again if the
        table now has room, else insert exactly."""
        if self._folds:
            self._catch_up()
            self._safe_hits = self._safe_hits_granted = table.safe_inserts()
            if self._safe_hits:
                self._safe_hits -= 1
                slot.pending.append(value.value)  # type: ignore[attr-defined]
                return
            item, size = value.value, value.serialized_size()  # type: ignore[attr-defined]
        else:
            item = value.to_bytes()
            size = len(item)
        tallies = self._tallies
        tallies.hits += 1
        tallies.hit_bytes += len(key_bytes) + size
        outcome = table.add(slot, item, size)
        if outcome is not None:
            self._forward(*outcome)

    def _catch_up(self) -> None:
        """Insert the deferred hits and tally them with their combines."""
        if self._safe_hits != self._safe_hits_granted:
            self._safe_hits_granted = self._safe_hits
            hits, hit_bytes, combines = self._table.catch_up()  # type: ignore[union-attr]
            tallies = self._tallies
            tallies.hits += hits
            tallies.hit_bytes += hit_bytes
            tallies.combines += combines
            tallies.combine_in += combines * VALUES_PER_KEY_LIMIT
            tallies.combine_out += combines

    def flush(self) -> SpillIndex:
        if self._table is not None:
            self._catch_up()
            aggregates, outcomes = self._table.drain()
            for rekeyed, combined in outcomes:
                self._forward(rekeyed, combined, eager=False)
            self._settle()
            # The aggregates re-enter the standard dataflow: they are
            # buffered (EMIT), sorted, spilled and merged like any other
            # record — just far fewer of them.
            for key_bytes, value_bytes in aggregates:
                self.inner.collect_serialized(key_bytes, value_bytes, count_output=False)
        return self.inner.flush()

    def _forward(self, left: list, combined: Combined, eager: bool = True) -> None:
        """Send records that left the table down the spill path, *then*
        publish the combines: a forwarded record can cut a spill, which
        settles, and that spill's produce work must not include them."""
        collect = self.inner.collect_serialized
        for key_bytes, value_bytes in left:
            # Already counted as map output when they hit.
            collect(key_bytes, value_bytes, count_output=False)
        self._tallies.publish(len(left), combined, eager)

    def _settle(self) -> None:
        """Charge everything the optimization stage did since the last
        settlement: one probe per tuple, the eager combines' bookkeeping
        and the user combine() bodies (both run on the map thread), and
        the hits' map-output accounting (misses are counted as output by
        the standard path)."""
        self._catch_up()
        tallies, self._tallies = self._tallies, Tallies()
        misses, self._misses = self._misses, 0
        model = self.inner.cost_model
        charge = self.instruments.charge_map_thread
        charge(
            Op.HASHBUF,
            model.hash_record * (tallies.hits + misses)
            + model.hash_combine_record * VALUES_PER_KEY_LIMIT * tallies.combines,
        )
        if self.combiner_runner is not None:
            charge(
                Op.COMBINE,
                self.combiner_runner.user_costs.combine_record * tallies.combine_in,
            )
        incr = self.counters.incr
        incr(Counter.FREQBUF_HITS, tallies.hits)
        incr(Counter.FREQBUF_MISSES, misses)
        incr(Counter.FREQBUF_EVICTIONS, tallies.evictions)
        incr(Counter.MAP_OUTPUT_RECORDS, tallies.hits)
        incr(Counter.MAP_OUTPUT_BYTES, tallies.hit_bytes)
        incr(Counter.COMBINE_INPUT_RECORDS, tallies.combine_in)
        incr(Counter.COMBINE_OUTPUT_RECORDS, tallies.combine_out)

    # ------------------------------------------------------------------
    # stage transitions
    # ------------------------------------------------------------------
    def _init_preprofiler(self) -> None:
        expected = self._expected_total_output()
        self._preprofiler = PreProfiler(self.k, expected)

    def _expected_total_output(self) -> int:
        """Extrapolate the task's total output records from progress so far."""
        fraction = max(self._input_fraction, 1e-6)
        return max(self.k + 1, int(self._emitted / fraction))

    def _finish_preprofile(self) -> None:
        assert self.stage is Stage.PREPROFILE
        if self._preprofiler is None or self._preprofiler.records_seen == 0:
            # No output yet; keep pre-profiling until we see records.
            return
        # Re-estimate total with the freshest progress information.
        self._preprofiler.expected_total_records = self._expected_total_output()
        decision = self._preprofiler.decide()
        self.alpha = decision.alpha
        self.sample_fraction = max(decision.sampling_fraction, PREPROFILE_FRACTION)
        if self.share_across_tasks:
            self.shared_state[SHARED_ALPHA] = decision.alpha
            self.shared_state[SHARED_SAMPLE_FRACTION] = self.sample_fraction
        # Seed the main profiler with what pre-profiling already counted.
        for key, count in self._preprofiler.counts().items():
            self._summary.observe(key, count)
        self._preprofiler = None
        self.stage = Stage.PROFILE

    def _finish_profile(self) -> None:
        assert self.stage is Stage.PROFILE
        if self._summary.items_seen == 0:
            return  # nothing observed yet; extend profiling
        frequent = self._summary.frequent_keys(self.k)
        if self.share_across_tasks:
            self.shared_state[SHARED_FREQUENT_KEYS] = frozenset(frequent)
        self._activate(frequent)

    def _activate(self, frequent: set[Writable]) -> None:
        self._table = FoldTable(
            self.combiner_runner,
            VALUES_PER_KEY_LIMIT,
            keys=(key.to_bytes() for key in frequent),
            budget_bytes=self.hash_budget_bytes,
        )
        self._folds = self._table.fold is not None
        # Non-owning: a bound method here would close an outer <-> inner
        # cycle that only the cyclic GC could free.
        self.inner.settle_front_stage = weakref.WeakMethod(self._settle)
        self.stage = Stage.OPTIMIZE
