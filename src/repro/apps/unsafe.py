"""A deliberately unsafe WordCount variant — the lint fixture.

Every construct in here violates one of the analyzer's rules on
purpose; the lint tests assert that each violation is caught with the
right rule id and line anchor, and the strict-mode tests assert the
runner refuses to submit this job.  It is registered under
``FIXTURE_REGISTRY`` (name ``unsafewordcount``) so ``repro lint
unsafewordcount`` can demonstrate findings, but it is intentionally
excluded from the benchmark registries: it exists to be rejected, not
run.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Mapping

from ..data.textcorpus import CorpusSpec, generate_corpus
from ..engine.api import Combiner, Emitter, Mapper, Reducer
from ..engine.inputformat import TextInput
from ..engine.job import JobSpec
from ..serde.numeric import VIntWritable
from ..serde.text import Text
from ..serde.writable import Writable
from .base import AppJob, make_conf
from .nlp.tokenizer import tokenize

#: Module-level mutable state the mapper leaks into — silently diverging
#: under the cluster backend's fork, and carried into a retried attempt.
RECORDS_SEEN = 0


def _make_local_counter_cls() -> type:
    """A writable class pickle cannot find by qualified name.

    Its qualname contains ``<locals>`` and it defines no ``__reduce__``,
    so the cluster backend's result pickle dies on instances of it —
    the ``pickle-local-writable`` case.
    """

    class LocalCounter(VIntWritable):
        pass

    return LocalCounter


LocalCounter = _make_local_counter_cls()


class UnsafeMapper(Mapper):
    """Tokenizes like WordCount, but breaks every purity rule doing it."""

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        global RECORDS_SEEN  # purity-global-write
        RECORDS_SEEN += 1
        self.last_stamp = time.time()  # purity-task-state + purity-nondeterministic
        for word in tokenize(value.value):  # type: ignore[attr-defined]
            # Emits a Text value where the job declares a counter class:
            # serde-value-mismatch.
            emit(Text(word), Text(word))


class UnsafeCombiner(Combiner):
    """Not a fold: rewrites the key, depends on batching, double-emits."""

    def combine(self, key: Writable, values: list[Writable], emit: Emitter) -> None:
        batch = len(values)  # combiner-count-dependent
        emit(Text(key.value.upper()), VIntWritable(batch))  # type: ignore[attr-defined]  # combiner-key-rewrite
        emit(key, VIntWritable(0))  # second straight-line emit: combiner-multi-emit


class UnsafeReducer(Reducer):
    """Sums whatever arrives (never reached: lint rejects upstream)."""

    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        emit(key, VIntWritable(sum(1 for _ in values)))


def build_unsafewordcount(
    scale: float = 0.01,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 2,
    seed: int = 0,
) -> AppJob:
    """Assemble the unsafe fixture job (for analysis, not for running)."""
    spec = CorpusSpec(seed=seed).scaled(scale)
    data = generate_corpus(spec)
    conf = make_conf(conf_overrides)
    split_size = max(1, len(data) // num_splits)

    job = JobSpec(
        name="unsafewordcount",
        input_format=TextInput(data, split_size=split_size, path="corpus.txt"),
        mapper_factory=UnsafeMapper,
        reducer_factory=UnsafeReducer,
        combiner_factory=UnsafeCombiner,
        map_output_key_cls=Text,
        map_output_value_cls=LocalCounter,  # pickle-local-writable
        conf=conf,
    )
    return AppJob(
        app_name="unsafewordcount",
        text_centric=True,
        job=job,
        oracle=None,
        info={"fixture": "deliberately violates every lint rule"},
    )
