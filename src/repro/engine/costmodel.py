"""The work-unit cost model.

Every framework primitive — deserializing an input record, appending a
serialized record to the spill buffer, one sort comparison, one byte of
spill I/O — has a cost in abstract *work units* (think cycles).  Stages
multiply these constants by the counts of what they actually did to real
data and charge the product to the instrumentation ledger.  Dividing
accumulated work by a node's ``speed`` (work units per second) yields
modelled seconds, which is what the cluster simulator schedules with.

Why a cost model instead of wall-clock timing?  The paper's results are
about *relative* volumes of framework work (sorting, spilling, merging,
shuffling) against user work; those ratios are properties of the
dataflow, not of a particular CPU, and a model makes them deterministic
and hardware-independent.  The constants below were chosen so that the
baseline breakdown of our six applications reproduces the shape of the
paper's Figure 2 (user code a small share for all apps except
WordPOSTag; post-map operations scaling with intermediate data volume).
Every constant is overridable per-experiment, and the cost-model claim
of :mod:`repro.experiments.ablations` checks the headline result is
robust to perturbing them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Work-unit prices for framework primitives.

    Units are abstract cycles.  Byte costs are per byte, record costs
    per record, comparison costs per key comparison.
    """

    # --- map input ---
    read_byte: float = 1.0  # DFS read + buffer copy per input byte
    deserialize_record: float = 80.0  # per input record (line split, decode)

    # --- emit / collect ---
    serialize_byte: float = 2.0  # serializing map output, per byte
    collect_record: float = 55.0  # buffer append + partition + bookkeeping

    # --- sort ---
    sort_comparison: float = 9.0  # one key-bytes comparison during spill sort
    sort_byte_move: float = 0.4  # moving record bytes while sorting

    # --- combine plumbing (the user combine() body is charged separately) ---
    combine_record_overhead: float = 20.0  # deserialize values + regroup

    # --- spill I/O ---
    spill_write_byte: float = 3.0  # local disk write per byte
    spill_read_byte: float = 2.0  # local disk read per byte (merge input)

    # --- end-of-task merge ---
    merge_comparison: float = 9.0
    merge_byte: float = 1.0  # per byte passed through the merge

    # --- shuffle ---
    net_byte: float = 6.0  # per byte moved between nodes
    shuffle_merge_byte: float = 1.5  # reduce-side merge per byte

    # --- reduce output ---
    output_byte: float = 3.0  # writing final output per byte

    # --- optional spill/shuffle compression (the §VII extension) ---
    compress_byte: float = 4.0  # CPU per uncompressed byte compressed
    decompress_byte: float = 1.5  # CPU per uncompressed byte recovered

    # --- frequency-buffering overheads (Section V-B2: "small profiling
    #     and hashing overhead") ---
    profile_record: float = 14.0  # one Space-Saving update
    hash_record: float = 10.0  # one frequent-key hash table probe/insert
    hash_combine_record: float = 8.0  # in-buffer eager combine bookkeeping

    def with_overrides(self, **overrides: float) -> "CostModel":
        """A copy with some constants replaced (for ablations)."""
        return replace(self, **overrides)

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly scale all constants (models faster/slower framework)."""
        fields = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__  # type: ignore[attr-defined]
        }
        return CostModel(**fields)


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class UserCodeCosts:
    """Work-unit prices for the *user's* map/combine/reduce bodies.

    These are per-application: WordCount's map is a cheap tokenizer while
    WordPOSTag's runs Viterbi decoding, which is exactly the CPU-intensity
    axis the paper's SynText benchmark sweeps (Figure 10).  Applications
    declare their costs in their :class:`~repro.apps.base.Application`
    descriptor.
    """

    map_record: float = 150.0  # per input record
    map_byte: float = 2.0  # per input byte (parsing)
    combine_record: float = 25.0  # per value combined
    reduce_record: float = 25.0  # per value reduced

    def with_cpu_intensity(self, factor: float) -> "UserCodeCosts":
        """Scale the map() body cost — SynText's CPU-intensity knob."""
        return replace(
            self,
            map_record=self.map_record * factor,
            map_byte=self.map_byte * factor,
        )
