"""WordCount — the canonical text-centric MapReduce program.

"WordCount computes the number of occurrences of each distinct word
appears in a text corpus" (Section II-B).  Map is a cheap tokenizer
emitting ``(word, 1)``; combine and reduce sum counters.  Its map output
is large (one record per token) with a Zipf-skewed key set — the
archetype frequency-buffering targets, and the paper's headline result
(571s -> 347s, a 39.1% saving, Table III).
"""

from __future__ import annotations

from collections import Counter as PyCounter
from typing import Any, Iterator, Mapping

from ..engine.api import Combiner, Emitter, Mapper, Reducer
from ..engine.costmodel import UserCodeCosts
from ..engine.inputformat import TextInput
from ..engine.job import JobSpec
from ..data.textcorpus import CorpusSpec, generate_corpus
from ..serde.numeric import VIntWritable
from ..serde.text import Text
from ..serde.writable import Writable
from .base import AppJob, make_conf
from .nlp.tokenizer import tokenize

#: Cost calibration: WordCount's map body is a trivial tokenize-and-emit
#: loop, so user code is a small share of the job (Figure 2 shows the
#: framework dominating for WordCount).
WORDCOUNT_COSTS = UserCodeCosts(
    map_record=240.0, map_byte=3.0, combine_record=18.0, reduce_record=18.0
)


class WordCountMapper(Mapper):
    """Tokenize each line; emit ``(word, 1)`` per token."""

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        for word in tokenize(value.value):  # type: ignore[attr-defined]
            emit(Text(word), VIntWritable(1))


class WordCountCombiner(Combiner):
    """Sum partial counts map-side (algebraically safe: + is associative)."""

    def combine(self, key: Writable, values: list[Writable], emit: Emitter) -> None:
        emit(key, VIntWritable(sum(v.value for v in values)))  # type: ignore[attr-defined]


class WordCountReducer(Reducer):
    """Sum all counts of one word."""

    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        emit(key, VIntWritable(sum(v.value for v in values)))  # type: ignore[attr-defined]


def wordcount_oracle(data: bytes) -> dict[str, int]:
    """Reference output computed naively."""
    counts: PyCounter[str] = PyCounter()
    for line in data.decode("utf-8").splitlines():
        counts.update(tokenize(line))
    return dict(counts)


def wordcount_jobspec(
    data: bytes,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    path: str = "corpus.txt",
    name: str = "wordcount",
) -> JobSpec:
    """A WordCount job over *data* — any text, not just the generated
    corpus."""
    split_size = max(1, len(data) // num_splits)
    return JobSpec(
        name=name,
        input_format=TextInput(data, split_size=split_size, path=path),
        mapper_factory=WordCountMapper,
        reducer_factory=WordCountReducer,
        combiner_factory=WordCountCombiner,
        map_output_key_cls=Text,
        map_output_value_cls=VIntWritable,
        conf=make_conf(conf_overrides),
        user_costs=WORDCOUNT_COSTS,
    )


def build_wordcount(
    scale: float = 0.1,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    seed: int = 0,
) -> AppJob:
    """Assemble a WordCount job over a generated corpus."""
    spec = CorpusSpec(seed=seed).scaled(scale)
    data = generate_corpus(spec)
    job = wordcount_jobspec(data, conf_overrides, num_splits)
    return AppJob(
        app_name="wordcount",
        text_centric=True,
        job=job,
        oracle=lambda: wordcount_oracle(data),
        info={"corpus": spec, "bytes": len(data)},
    )
