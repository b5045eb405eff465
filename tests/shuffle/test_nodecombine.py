"""The in-node combine stage: correctness, boundedness, accounting.

Node combining folds one node's finished map outputs through the job's
combiner before reducers fetch, publishing one synthetic per-node
output.  The contract under test:

* the job's final output is byte-identical with the stage on or off, on
  every backend and shuffle mode (a fold-like combiner makes regrouping
  across task boundaries safe);
* the stage is *bounded*: a tiny hash budget forces partial flushes and
  a finalize merge, without changing a byte of output;
* counters reconcile — ``COMBINE_INPUT/OUTPUT_RECORDS`` still mean
  per-task combining only, the stage's own traffic lands exclusively on
  ``NODE_COMBINE_*``, and its work on the ``node_combine`` ledger op;
* the lint gate treats the stage exactly like frequency buffering: an
  unverifiable combiner forces it off, recorded as a GatingDecision.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import JobConf, Keys
from repro.engine.api import Combiner
from repro.engine.costmodel import DEFAULT_COST_MODEL, UserCodeCosts
from repro.engine.counters import Counter
from repro.engine.inputformat import TextInput
from repro.engine.instrumentation import Op
from repro.engine.job import JobSpec
from repro.engine.runner import JobResult, LocalJobRunner
from repro.exec.base import apply_node_combine
from repro.io.spillfile import read_segment
from repro.serde.numeric import IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text
from repro.shuffle.nodecombine import NodeCombiner, node_combine_task_id
from tests.conftest import SumReducer, TokenMapper, make_wordcount_job
from tests.core.test_freqbuf_frontstage import AGGS, generic_twin
from tests.core.test_freqbuf_frontstage import make_job as make_fold_job


def run_wordcount(tiny_text, node_combine: bool, **conf) -> JobResult:
    overrides = {Keys.NODE_COMBINE: node_combine, Keys.NUM_REDUCERS: 2}
    overrides.update(conf)
    return LocalJobRunner().run(
        make_wordcount_job(tiny_text, overrides, num_splits=3)
    )


class TestStageUnit:
    def test_folds_duplicates_across_tasks(self, tiny_text):
        """Keys surviving per-task combining once per task fold to one
        record per partition in the synthetic output."""
        base = run_wordcount(tiny_text, node_combine=False)
        assert len(base.map_results) >= 2

        job = make_wordcount_job(tiny_text, {Keys.NUM_REDUCERS: 2}, num_splits=3)
        combiner = NodeCombiner(job)
        synthetic = combiner.combine_host("node00", base.map_results)

        assert synthetic.task_id == node_combine_task_id(job, "node00")
        per_task_out = sum(
            r.counters.get(Counter.MAP_FINAL_OUTPUT_RECORDS) for r in base.map_results
        )
        assert combiner.counters.get(Counter.NODE_COMBINE_IN_RECORDS) == per_task_out
        out_records = combiner.counters.get(Counter.NODE_COMBINE_OUT_RECORDS)
        assert 0 < out_records < per_task_out, "stage must actually fold"

        # Every key appears exactly once per partition now.
        for partition in range(2):
            keys = [
                key for key, _ in read_segment(
                    synthetic.disk, synthetic.output_index, partition
                )
            ]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))

        # Work is charged on the dedicated op, nowhere else.
        assert combiner.ledger.get(Op.NODE_COMBINE) > 0
        assert set(combiner.ledger.work) == {Op.NODE_COMBINE}
        # The per-task combine counters stayed private.
        assert combiner.counters.get(Counter.COMBINE_INPUT_RECORDS) == 0

    def test_requires_a_combiner(self, tiny_text):
        job = make_wordcount_job(tiny_text, combiner=False)
        with pytest.raises(ValueError, match="combiner"):
            NodeCombiner(job)

    def test_apply_is_a_no_op_when_disabled(self, tiny_text):
        base = run_wordcount(tiny_text, node_combine=False)
        job = make_wordcount_job(tiny_text, {Keys.NODE_COMBINE: False})
        fetch, outcome = apply_node_combine(job, base.map_results, "node00")
        assert fetch is base.map_results
        assert outcome is None


class TestBoundedness:
    def test_tiny_budget_forces_partial_flushes(self, tiny_text):
        roomy = run_wordcount(tiny_text, node_combine=True)
        tight = run_wordcount(
            tiny_text, node_combine=True, **{Keys.NODE_COMBINE_BUFFER_BYTES: 64}
        )
        assert tight.counters.get(Counter.NODE_COMBINE_FLUSHES) > roomy.counters.get(
            Counter.NODE_COMBINE_FLUSHES
        )
        # Partial flushes + finalize merge change nothing downstream.
        assert tight.output_digest() == roomy.output_digest()
        assert tight.counters.get(
            Counter.NODE_COMBINE_OUT_RECORDS
        ) == roomy.counters.get(Counter.NODE_COMBINE_OUT_RECORDS)


class TestEndToEndIdentity:
    @pytest.mark.parametrize("backend", ("serial",))
    def test_output_identical_with_and_without(self, tiny_text, backend):
        conf = {Keys.EXEC_BACKEND: backend, Keys.EXEC_WORKERS: 3}
        off = run_wordcount(tiny_text, node_combine=False, **conf)
        on = run_wordcount(tiny_text, node_combine=True, **conf)
        assert on.output_digest() == off.output_digest()
        # Reducers now pull the folded synthetic outputs.
        assert on.counters.get(Counter.REDUCE_INPUT_RECORDS) < off.counters.get(
            Counter.REDUCE_INPUT_RECORDS
        )

    @pytest.mark.cluster
    def test_output_identical_on_cluster_backend(self, tiny_text):
        """Cluster runs group outputs by the daemons' real host labels;
        which task lands where varies run to run, so the folded record
        counts may differ — the digest must not."""
        conf = {Keys.EXEC_BACKEND: "cluster", Keys.EXEC_WORKERS: 3}
        off = run_wordcount(tiny_text, node_combine=False, **conf)
        on = run_wordcount(tiny_text, node_combine=True, **conf)
        assert on.output_digest() == off.output_digest()
        assert on.counters.get(Counter.NODE_COMBINE_HOSTS) >= 1

    @pytest.mark.network
    def test_output_identical_over_net_shuffle(self, tiny_text):
        conf = {Keys.SHUFFLE_MODE: "net"}
        off = run_wordcount(tiny_text, node_combine=False, **conf)
        on = run_wordcount(tiny_text, node_combine=True, **conf)
        assert on.output_digest() == off.output_digest()
        assert on.counters.get(Counter.NODE_COMBINE_OUT_RECORDS) > 0

    def test_counters_reconcile(self, tiny_text):
        """Per-task combine counters are untouched by the stage; the
        stage's input is exactly the tasks' final output."""
        off = run_wordcount(tiny_text, node_combine=False)
        on = run_wordcount(tiny_text, node_combine=True)
        for counter in (
            Counter.COMBINE_INPUT_RECORDS,
            Counter.COMBINE_OUTPUT_RECORDS,
            Counter.MAP_OUTPUT_RECORDS,
            Counter.MAP_FINAL_OUTPUT_RECORDS,
        ):
            assert on.counters.get(counter) == off.counters.get(counter), counter
        assert on.counters.get(Counter.NODE_COMBINE_IN_RECORDS) == on.counters.get(
            Counter.MAP_FINAL_OUTPUT_RECORDS
        )
        assert off.counters.get(Counter.NODE_COMBINE_IN_RECORDS) == 0
        assert on.ledger.get(Op.NODE_COMBINE) > 0
        assert off.ledger.get(Op.NODE_COMBINE) == 0

    def test_works_with_compression(self, tiny_text):
        conf = {Keys.SPILL_COMPRESSION: "zlib"}
        off = run_wordcount(tiny_text, node_combine=False, **conf)
        on = run_wordcount(tiny_text, node_combine=True, **conf)
        assert on.output_digest() == off.output_digest()


class LossyCombiner(Combiner):
    """Emits twice — statically unverifiable (combiner-multi-emit)."""

    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))
        emit(key, VIntWritable(0))


class TestGating:
    def _job(self, data: bytes, combiner_cls) -> JobSpec:
        conf = JobConf({
            Keys.SPILL_BUFFER_BYTES: 4096,
            Keys.NUM_REDUCERS: 2,
            Keys.LINT_MODE: "warn",
            Keys.NODE_COMBINE: True,
        })
        return JobSpec(
            name="nc-gate",
            input_format=TextInput(data, split_size=max(1, len(data) // 2)),
            mapper_factory=TokenMapper,
            reducer_factory=SumReducer,
            combiner_factory=combiner_cls,
            map_output_key_cls=Text,
            map_output_value_cls=VIntWritable,
            conf=conf,
        )

    def test_unverified_combiner_disables_the_stage(self, tiny_text):
        result = LocalJobRunner().run(self._job(tiny_text, LossyCombiner))
        decisions = {(g.optimization, g.action) for g in result.lint_report.gating}
        assert ("node_combine", "disabled") in decisions
        assert result.counters.get(Counter.NODE_COMBINE_IN_RECORDS) == 0
        assert result.ledger.get(Op.NODE_COMBINE) == 0

    def test_verified_combiner_keeps_the_stage(self, tiny_text):
        from tests.conftest import SumCombiner

        result = LocalJobRunner().run(self._job(tiny_text, SumCombiner))
        decisions = {(g.optimization, g.action) for g in result.lint_report.gating}
        assert ("node_combine", "kept") in decisions
        assert result.counters.get(Counter.NODE_COMBINE_IN_RECORDS) > 0


# ----------------------------------------------------------------------
# the proven fold against the generic one
# ----------------------------------------------------------------------

#: Non-integer costs, so a change in the order of the stage's float
#: additions would show in the ledger.
FOLD_COSTS = dataclasses.replace(
    DEFAULT_COST_MODEL, combine_record_overhead=0.1, hash_record=0.3, sort_comparison=0.7
)


@pytest.mark.parametrize("value_cls", [VIntWritable, IntWritable, LongWritable])
@pytest.mark.parametrize("agg", sorted(AGGS))
@pytest.mark.parametrize("buffer_bytes", [48, 1 << 20])  # 48: a partial flush every few records
def test_proven_node_fold_is_unobservable(agg, value_cls, buffer_bytes):
    """Negative and multi-byte values (``scale`` 2**20) through the
    stage with the proven fold and with the same combiner behind a
    source-hiding proxy: the same output bytes, ``NODE_COMBINE_*``
    counters and ledger."""
    proven_job = dataclasses.replace(
        make_fold_job(agg, value_cls, {
            Keys.NODE_COMBINE: True,
            Keys.NODE_COMBINE_BUFFER_BYTES: buffer_bytes,
            Keys.SPILL_BUFFER_BYTES: 1024,
        }, scale=1 << 20),
        cost_model=FOLD_COSTS,
        user_costs=UserCodeCosts(combine_record=0.7),
    )
    proven = LocalJobRunner().run(proven_job)
    generic = LocalJobRunner().run(generic_twin(proven_job))

    assert proven.counters.get(Counter.NODE_COMBINE_IN_RECORDS) > proven.counters.get(
        Counter.NODE_COMBINE_OUT_RECORDS
    )
    if buffer_bytes < 64:
        assert proven.counters.get(Counter.NODE_COMBINE_FLUSHES) > 2 * proven_job.num_reducers
    assert proven.output_digest() == generic.output_digest()
    assert proven.counters.as_dict() == generic.counters.as_dict()  # NODE_COMBINE_* included
    assert proven.ledger.work == generic.ledger.work
    assert proven.ledger.get(Op.NODE_COMBINE) > 0
