"""Synthetic web-crawl generator for PageRank.

The paper: "The crawl for PageRank is a synthetic graph of 10M pages
... We used a Zipfian parameter α = 1 according to Adamic and
Huberman.  The web graph is then represented as a list of URLs with
their outgoing links."

We draw each page's out-links by sampling *target* pages from a
Zipf(α=1) popularity distribution, which yields the Zipfian in-degree
distribution Adamic & Huberman observed.  Each input line is

    url<TAB>pagerank<TAB>out1,out2,...

with the initial rank ``1/n`` — the record format the PageRank mapper
parses.  ``networkx`` round-trips are used only in tests to verify the
generated structure and to compute reference PageRank values.
"""

from __future__ import annotations

from dataclasses import dataclass


from .rng import rng_for
from .zipfian import ZipfSampler


def page_url(index: int) -> str:
    return f"page{index:07d}.example.net"


@dataclass(frozen=True)
class WebGraphSpec:
    """Shape parameters of the synthetic crawl.

    Defaults at unit scale: 8,000 pages with mean out-degree 10 — the
    paper's 10M pages shrunk, with the Zipf(1) in-link popularity kept.
    """

    pages: int = 8_000
    mean_out_degree: int = 10
    alpha: float = 1.0  # Adamic & Huberman, as used in the paper
    seed: int = 0

    def scaled(self, scale: float) -> "WebGraphSpec":
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return WebGraphSpec(
            pages=max(100, int(self.pages * scale)),
            mean_out_degree=self.mean_out_degree,
            alpha=self.alpha,
            seed=self.seed,
        )


def generate_webgraph(spec: WebGraphSpec) -> bytes:
    """Generate the crawl file (url, initial rank, outlinks per line)."""
    rng = rng_for("webgraph", spec.seed)
    sampler = ZipfSampler(spec.pages, spec.alpha, rng)
    out_degrees = rng.poisson(spec.mean_out_degree, size=spec.pages)
    initial_rank = 1.0 / spec.pages

    lines = []
    for page in range(spec.pages):
        degree = max(1, int(out_degrees[page]))
        targets = sampler.sample(degree) - 1
        # Drop self-links; deduplicate while preserving draw order.
        seen: dict[int, None] = {}
        for target in targets:
            if target != page:
                seen[int(target)] = None
        links = ",".join(page_url(t) for t in seen) if seen else page_url((page + 1) % spec.pages)
        lines.append(f"{page_url(page)}\t{initial_rank:.10f}\t{links}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_webgraph(data: bytes) -> dict[str, tuple[float, list[str]]]:
    """Parse a crawl file back to {url: (rank, outlinks)} (test oracle)."""
    graph: dict[str, tuple[float, list[str]]] = {}
    for line in data.decode("utf-8").splitlines():
        url, rank, links = line.split("\t")
        graph[url] = (float(rank), links.split(",") if links else [])
    return graph


def reference_pagerank_iteration(
    graph: dict[str, tuple[float, list[str]]]
) -> dict[str, float]:
    """One PageRank iteration computed naively (the reduce-side oracle).

    Matches the paper's benchmark semantics: "The combiner and reducer
    simply sum ranks for each observed URL" — plain rank propagation
    with no damping, each page splitting its rank over its out-links.
    """
    sums: dict[str, float] = {url: 0.0 for url in graph}
    for url, (rank, links) in graph.items():
        if not links:
            continue
        share = rank / len(links)
        for target in links:
            sums[target] = sums.get(target, 0.0) + share
    return sums


def reference_pagerank_fixpoint(
    graph: dict[str, tuple[float, list[str]]],
    tolerance: float = 1e-8,
    max_iterations: int = 500,
) -> tuple[dict[str, float], int]:
    """Iterate plain rank propagation to fixpoint with NumPy.

    The dense-matrix power iteration chained MapReduce PageRank jobs
    must reproduce: ``r' = M r`` where ``M[t, s] = 1/out(s)`` for
    each link ``s -> t`` — no damping, matching
    :func:`reference_pagerank_iteration`.  Returns the converged ranks
    and the number of iterations taken.  Dense in the page count, so
    meant for test-scale graphs (thousands of pages), not the full crawl.
    """
    import numpy as np

    urls = list(graph)
    index = {url: i for i, url in enumerate(urls)}
    n = len(urls)
    matrix = np.zeros((n, n), dtype=np.float64)
    for url, (_rank, links) in graph.items():
        if not links:
            continue
        share = 1.0 / len(links)
        source = index[url]
        for target in links:
            matrix[index[target], source] += share
    ranks = np.array([graph[url][0] for url in urls], dtype=np.float64)
    for iteration in range(1, max_iterations + 1):
        updated = matrix @ ranks
        delta = float(np.max(np.abs(updated - ranks)))
        ranks = updated
        if delta < tolerance:
            return {url: float(ranks[index[url]]) for url in urls}, iteration
    raise ValueError(
        f"reference PageRank did not converge within {max_iterations} iterations "
        f"(last delta above {tolerance})"
    )
