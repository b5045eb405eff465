"""The shared fold matcher applied to ``combine()``.

``combiner_fold`` licenses frequency buffering and node combining to
fold raw ints in place of calling ``combine()``, so it must accept only
what is provably ``emit(key, W(sum|min|max(v.value for v in values)))``
re-wrapped in the declared exact-int value class, and nothing else.
Fixture classes live at module level so ``inspect`` finds their source.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.apps.wordcount import WordCountCombiner
from repro.engine.api import Combiner, FnCombiner
from repro.lint.proofs import combiner_fold
from repro.serde.numeric import FloatWritable, IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text
from tests.lint.shadowing_fixture import ShadowedSumCombiner


class MinCombiner(Combiner):
    """Docstrings do not count as statements."""

    def combine(self, key, values, emit):
        """Keep the smallest."""
        emit(key, LongWritable(min(v.value for v in values)))


class MaxCombiner(Combiner):
    def combine(self, k, vs, out):  # parameter names are the user's
        out(k, IntWritable(max(x.value for x in vs)))


class CountingCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(1 for _ in values)))


class FloatSumCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(key, FloatWritable(sum(v.value for v in values)))


class RekeyingCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(Text("all"), VIntWritable(sum(v.value for v in values)))


class ParameterShadowsSum(Combiner):
    def combine(self, key, sum, emit):
        emit(key, VIntWritable(sum(v.value for v in sum)))


class TwoStatementCombiner(Combiner):
    def combine(self, key, values, emit):
        total = sum(v.value for v in values)
        emit(key, VIntWritable(total))


class StatefulCombiner(Combiner):
    """Carries a running offset across groups: not a fold of the group."""

    def __init__(self):
        self.seen = 0

    def combine(self, key, values, emit):
        self.seen += 1
        emit(key, VIntWritable(sum(v.value for v in values) + self.seen))


class FilteringCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values if v.value > 0)))


class OtherWrapperCombiner(Combiner):
    """Sums fine, but re-wraps in a class the job does not declare."""

    def combine(self, key, values, emit):
        emit(key, IntWritable(sum(v.value for v in values)))


class InheritingCombiner(WordCountCombiner):
    """The fold lives in the parent's source, not here."""


class DelegatingProxy:
    """What ``bench/tracing.py`` wraps combiners in: its own source says
    nothing about the combiner behind it."""

    def __init__(self, inner):
        self._inner = inner

    def combine(self, key, values, emit):
        self._inner.combine(key, values, emit)


@pytest.mark.parametrize("combiner_cls, value_cls, fold", [
    (WordCountCombiner, VIntWritable, "sum"),
    (MinCombiner, LongWritable, "min"),
    (MaxCombiner, IntWritable, "max"),
])
def test_accepts_the_fold_template(combiner_cls, value_cls, fold):
    assert combiner_fold(combiner_cls, value_cls) == fold


@pytest.mark.parametrize("combiner_cls, value_cls", [
    (CountingCombiner, VIntWritable),
    (FloatSumCombiner, FloatWritable),
    (RekeyingCombiner, VIntWritable),
    (ShadowedSumCombiner, VIntWritable),
    (ParameterShadowsSum, VIntWritable),
    (TwoStatementCombiner, VIntWritable),
    (StatefulCombiner, VIntWritable),
    (FilteringCombiner, VIntWritable),
    (OtherWrapperCombiner, VIntWritable),
    (WordCountCombiner, LongWritable),  # declared class != the wrapper
    (InheritingCombiner, VIntWritable),
    (FnCombiner, VIntWritable),
    (DelegatingProxy, VIntWritable),
])
def test_rejects_everything_else(combiner_cls, value_cls):
    assert combiner_fold(combiner_cls, value_cls) is None


def test_source_is_parsed_once_per_class():
    combiner_fold.cache_clear()
    for _ in range(3):
        combiner_fold(WordCountCombiner, VIntWritable)
    info = combiner_fold.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_the_matcher_and_a_default_run_leave_the_pipeline_analysis_unloaded():
    # Every job with a combiner or a reducer imports the proofs
    # (CombinerRunner takes the combiner proof at construction, the
    # reduce task the reducer proof), in every forked worker too.  They
    # must not load the rule catalog.
    script = "\n".join([
        "import sys",
        "from repro.engine.runner import LocalJobRunner",
        "from repro.experiments.common import build_app",
        "for name in ('wordcount', 'distributedsort'):",
        "    LocalJobRunner().run(build_app(name, 'baseline', scale=0.02).job)",
        "assert 'repro.lint.proofs' in sys.modules",
        "heavy = ('repro.lint.engine', 'repro.lint.rules')",
        "loaded = [m for m in heavy if m in sys.modules]",
        "assert not loaded, loaded",
        "result = LocalJobRunner().run(build_app('wordcount', 'baseline', scale=0.02).job)",
        "assert result.counters.as_dict()['combine_input_records'] > 0",
        # Backends register by dotted name: a serial mem-shuffle run
        # loads neither the fetcher's pool nor the cluster's forking.
        "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]",
        "assert not loaded, loaded",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
