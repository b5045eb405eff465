"""InvertedIndex — postings construction over a text corpus.

"InvertedIndex constructs, for each word in a corpus, a list of all the
locations where the word appears" (Section II-B).  Map emits
``(word, position)``; combine concatenates partial posting lists —
note that unlike WordCount the combined value *grows* with the inputs,
which is exactly the storage-intensity axis of the paper's Figure 10
(InvertedIndex sits in its upper-left corner).  Reduce merges and
sorts the final posting list.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..data.textcorpus import CorpusSpec, generate_corpus
from ..engine.api import Combiner, Emitter, Mapper, Reducer
from ..engine.costmodel import UserCodeCosts
from ..engine.inputformat import TextInput
from ..engine.job import JobSpec
from ..serde.text import Text
from ..serde.writable import Writable
from .base import AppJob, make_conf
from .nlp.tokenizer import tokenize_with_offsets

INVERTEDINDEX_COSTS = UserCodeCosts(
    map_record=260.0, map_byte=3.2, combine_record=22.0, reduce_record=25.0
)


class InvertedIndexMapper(Mapper):
    """Emit ``(word, file_offset)`` for each token occurrence.

    The input key is the line's byte offset, so token positions are
    globally unique file coordinates — the paper's "locations".
    """

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        line_offset = key.value  # type: ignore[attr-defined]
        for word, offset in tokenize_with_offsets(value.value, line_offset):  # type: ignore[attr-defined]
            emit(Text(word), Text(str(offset)))


class InvertedIndexCombiner(Combiner):
    """Concatenate partial posting lists (set union; order restored in
    reduce).  Output size ≈ sum of input sizes — high storage-intensity."""

    def combine(self, key: Writable, values: list[Writable], emit: Emitter) -> None:
        postings = ",".join(v.value for v in values)  # type: ignore[attr-defined]
        emit(key, Text(postings))


class InvertedIndexReducer(Reducer):
    """Merge posting fragments into one sorted position list per word."""

    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        positions: list[int] = []
        for value in values:
            positions.extend(int(p) for p in value.value.split(","))  # type: ignore[attr-defined]
        positions.sort()
        emit(key, Text(",".join(str(p) for p in positions)))


def invertedindex_oracle(data: bytes) -> dict[str, str]:
    """Reference postings computed naively."""
    postings: dict[str, list[int]] = {}
    offset = 0
    for raw_line in data.split(b"\n"):
        line = raw_line.decode("utf-8")
        for word, pos in tokenize_with_offsets(line, offset):
            postings.setdefault(word, []).append(pos)
        offset += len(raw_line) + 1
    return {word: ",".join(str(p) for p in sorted(ps)) for word, ps in postings.items()}


def invertedindex_jobspec(
    data: bytes,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    path: str = "corpus.txt",
    name: str = "invertedindex",
) -> JobSpec:
    """An InvertedIndex job over *data* — any text dataset."""
    split_size = max(1, len(data) // num_splits)
    return JobSpec(
        name=name,
        input_format=TextInput(data, split_size=split_size, path=path),
        mapper_factory=InvertedIndexMapper,
        reducer_factory=InvertedIndexReducer,
        combiner_factory=InvertedIndexCombiner,
        map_output_key_cls=Text,
        map_output_value_cls=Text,
        conf=make_conf(conf_overrides),
        user_costs=INVERTEDINDEX_COSTS,
    )


def build_invertedindex(
    scale: float = 0.1,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    seed: int = 0,
) -> AppJob:
    """Assemble an InvertedIndex job over a generated corpus."""
    spec = CorpusSpec(seed=seed).scaled(scale)
    data = generate_corpus(spec)
    job = invertedindex_jobspec(data, conf_overrides, num_splits)
    return AppJob(
        app_name="invertedindex",
        text_centric=True,
        job=job,
        oracle=lambda: invertedindex_oracle(data),
        info={"corpus": spec, "bytes": len(data)},
    )
