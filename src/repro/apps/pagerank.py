"""PageRank — one iteration over the synthetic web crawl.

Section II-B: "An input record consists of a ``(URL, (pagerank,
outlinks))`` pair.  The map() function emits two pieces of data:
``(URL, (0, outlinks))`` (to reconstruct the graph), plus
``(T, (pagerank/|outlinks|))`` for each outgoing link T.  The combiner
and reducer simply sum ranks for each observed URL."

Values are a two-variant textual union: ``L:<links>`` carries the graph
structure, ``R:<contribution>`` carries a rank share.  The combiner sums
all R-variants into one and passes the (unique) L-variant through, so
it is safe under arbitrary re-application.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from ..data.webgraph import (
    WebGraphSpec,
    generate_webgraph,
    parse_webgraph,
    reference_pagerank_iteration,
)
from ..engine.api import Combiner, Emitter, Mapper, Reducer
from ..engine.costmodel import UserCodeCosts
from ..engine.inputformat import TextInput
from ..engine.job import JobSpec
from ..serde.text import Text
from ..serde.writable import Writable
from .base import AppJob, make_conf

PAGERANK_COSTS = UserCodeCosts(
    map_record=260.0, map_byte=2.0, combine_record=20.0, reduce_record=24.0
)


class PageRankMapper(Mapper):
    """Re-emit the adjacency list and scatter rank shares to targets."""

    def map(self, key: Writable, value: Writable, emit: Emitter) -> None:
        line = value.value  # type: ignore[attr-defined]
        if not line:
            return
        url, rank_text, links_text = line.split("\t")
        links = links_text.split(",") if links_text else []
        emit(Text(url), Text(f"L:{links_text}"))
        if links:
            share = float(rank_text) / len(links)
            contribution = f"R:{share:.12e}"
            for target in links:
                emit(Text(target), Text(contribution))


class PageRankCombiner(Combiner):
    """Sum rank contributions; forward the structure record untouched."""

    def combine(self, key: Writable, values: list[Writable], emit: Emitter) -> None:
        rank_sum = 0.0
        saw_rank = False
        for value in values:
            text = value.value  # type: ignore[attr-defined]
            if text.startswith("R:"):
                rank_sum += float(text[2:])
                saw_rank = True
            else:
                emit(key, value)
        if saw_rank:
            emit(key, Text(f"R:{rank_sum:.12e}"))


class PageRankReducer(Reducer):
    """New rank = Σ contributions; output ``url -> rank<TAB>links``."""

    def reduce(self, key: Writable, values: Iterator[Writable], emit: Emitter) -> None:
        rank_sum = 0.0
        links_text = ""
        for value in values:
            text = value.value  # type: ignore[attr-defined]
            if text.startswith("R:"):
                rank_sum += float(text[2:])
            else:
                links_text = text[2:]
        emit(key, Text(f"{rank_sum:.10f}\t{links_text}"))


def pagerank_jobspec(
    data: bytes,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    path: str = "crawl.dat",
    name: str = "pagerank",
) -> JobSpec:
    """One PageRank iteration over *data* (``url<TAB>rank<TAB>links``
    lines).  The reducer's output renders back to the same line format,
    so a caller can feed each iteration's output straight in as the next
    iteration's input."""
    split_size = max(1, len(data) // num_splits)
    return JobSpec(
        name=name,
        input_format=TextInput(data, split_size=split_size, path=path),
        mapper_factory=PageRankMapper,
        reducer_factory=PageRankReducer,
        combiner_factory=PageRankCombiner,
        map_output_key_cls=Text,
        map_output_value_cls=Text,
        conf=make_conf(conf_overrides),
        user_costs=PAGERANK_COSTS,
    )


def parse_ranks(state: bytes) -> dict[str, float]:
    """``url -> rank`` from a crawl-format dataset (the state chained
    PageRank iterations hand on)."""
    ranks: dict[str, float] = {}
    for line in state.decode("utf-8").splitlines():
        if not line:
            continue
        url, rank_text, _links = line.split("\t")
        ranks[url] = float(rank_text)
    return ranks


def max_rank_delta(previous: bytes, current: bytes) -> float:
    """Largest absolute per-URL rank change between two states — the
    convergence measure of chained iterations."""
    before = parse_ranks(previous)
    after = parse_ranks(current)
    return max(
        (abs(after.get(url, 0.0) - rank) for url, rank in before.items()),
        default=0.0,
    )


def build_pagerank(
    scale: float = 0.1,
    conf_overrides: Mapping[str, Any] | None = None,
    num_splits: int = 4,
    seed: int = 0,
) -> AppJob:
    """Assemble one PageRank iteration over a generated crawl."""
    spec = WebGraphSpec(seed=seed).scaled(scale)
    data = generate_webgraph(spec)
    job = pagerank_jobspec(data, conf_overrides, num_splits)

    def oracle() -> dict:
        graph = parse_webgraph(data)
        # Unrounded floats; combiner re-association perturbs sums at the
        # 1e-15 level, so tests compare with a tolerance, not equality.
        return dict(reference_pagerank_iteration(graph))

    return AppJob(
        app_name="pagerank",
        text_centric=False,
        job=job,
        oracle=oracle,
        info={"graph": spec, "bytes": len(data)},
    )
