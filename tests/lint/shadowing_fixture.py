"""A combiner that reads as the fold template in a module that shadows
the builtin it names (fixture for ``test_fold_matcher``)."""

from repro.engine.api import Combiner
from repro.serde.numeric import VIntWritable


def sum(numbers):  # noqa: A001 - the shadowing is the point
    return max(numbers)


class ShadowedSumCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))
