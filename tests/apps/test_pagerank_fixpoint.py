"""Chained PageRank jobs reach the same fixpoint NumPy does.

Each iteration's reducer output (``url<TAB>rank<TAB>links``) becomes the
next iteration's crawl input, as in ``examples/pagerank_iterations.py``,
until the largest per-URL rank change drops under ``TOLERANCE``.  The
reference is the dense power iteration on the very same generated
crawl.  The state round-trips through the rendered line format (ranks
quantized at 1e-10), so the comparison uses a tolerance well above that
but far below any real rank mass.
"""

from __future__ import annotations

from repro.apps.pagerank import max_rank_delta, pagerank_jobspec, parse_ranks
from repro.data.webgraph import (
    WebGraphSpec,
    generate_webgraph,
    parse_webgraph,
    reference_pagerank_fixpoint,
)
from repro.engine.runner import LocalJobRunner

SCALE = 0.02
TOLERANCE = 1e-8
MAX_ITERATIONS = 100
RANK_TOLERANCE = 1e-6


def _next_crawl(result) -> bytes:
    """Render a PageRank job's output back into crawl lines."""
    lines = [f"{key.value}\t{value.value}" for key, value in result.output_pairs()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_matches_numpy_reference():
    crawl = generate_webgraph(WebGraphSpec(seed=0).scaled(SCALE))
    state = crawl
    for _ in range(MAX_ITERATIONS):
        result = LocalJobRunner().run(pagerank_jobspec(state))
        previous, state = state, _next_crawl(result)
        if max_rank_delta(previous, state) < TOLERANCE:
            break
    else:
        raise AssertionError(f"no fixpoint within {MAX_ITERATIONS} iterations")

    ranks = parse_ranks(state)
    reference, _iterations = reference_pagerank_fixpoint(
        parse_webgraph(crawl), tolerance=TOLERANCE
    )
    assert set(ranks) == set(reference)
    worst = max(abs(ranks[url] - reference[url]) for url in reference)
    assert worst < RANK_TOLERANCE, f"largest rank deviation {worst:.2e}"
