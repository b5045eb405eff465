"""Seeded chaos soak: chains of jobs under a fault matrix.

A chain here is a plain sequence of ``LocalJobRunner`` runs where one
job's rendered output can be the next job's input, the way
``examples/pagerank_iterations.py`` drives PageRank.  With a seeded plan
that kills cluster worker daemons, corrupts spill reads and corrupts
DFS block replicas, every chain must finish with outputs byte-identical
to a fault-free run, and the recovery counters must prove the faults
actually fired (nonzero WORKER_CRASHES and TASK_REEXECUTIONS).

The single-job chaos matrix cannot show this: a job whose output was
recovered must hand its successor exactly the bytes a clean run would.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.apps.invertedindex import invertedindex_jobspec
from repro.apps.pagerank import max_rank_delta, pagerank_jobspec
from repro.apps.wordcount import wordcount_jobspec
from repro.config import Keys
from repro.data.textcorpus import CorpusSpec, generate_corpus
from repro.data.webgraph import WebGraphSpec, generate_webgraph
from repro.engine.counters import Counter
from repro.engine.runner import JobResult, LocalJobRunner

SCALE = 0.02
SOAK_SPEC = "worker.kill:0.5;disk.corrupt:0.5;dfs.corrupt:0.2:1"
SOAK_SEED = 1234
PAGERANK_TOLERANCE = 1e-8
PAGERANK_MAX_ITERATIONS = 100

#: Runs one job with the chain's conf and returns its result.
RunJob = Callable[..., JobResult]


def render_tsv(result: JobResult) -> bytes:
    """One ``key<TAB>value`` line per output pair, in output order."""
    lines = [f"{key.value}\t{value.value}" for key, value in result.output_pairs()]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def textindex(run: RunJob) -> list[JobResult]:
    """corpus -> wordcount -> invertedindex over the count table."""
    corpus = generate_corpus(CorpusSpec(seed=0).scaled(SCALE))
    counts = run(wordcount_jobspec, corpus)
    index = run(invertedindex_jobspec, render_tsv(counts), path="wordcount.tsv")
    return [counts, index]


def textfan(run: RunJob) -> list[JobResult]:
    """corpus -> {wordcount, invertedindex} over one shared corpus."""
    corpus = generate_corpus(CorpusSpec(seed=0).scaled(SCALE))
    return [run(wordcount_jobspec, corpus), run(invertedindex_jobspec, corpus)]


def pagerank(run: RunJob) -> list[JobResult]:
    """crawl -> pagerank, each iteration's output the next one's input,
    until the largest rank change drops under the tolerance."""
    state = generate_webgraph(WebGraphSpec(seed=0).scaled(SCALE))
    results = []
    for _ in range(PAGERANK_MAX_ITERATIONS):
        results.append(run(pagerank_jobspec, state))
        previous, state = state, render_tsv(results[-1])
        if max_rank_delta(previous, state) < PAGERANK_TOLERANCE:
            return results
    raise AssertionError(f"no fixpoint within {PAGERANK_MAX_ITERATIONS} iterations")


CHAINS = {"pagerank": pagerank, "textfan": textfan, "textindex": textindex}


def run_chain(name: str, faulted: bool) -> list[JobResult]:
    conf: dict = {Keys.EXEC_BACKEND: "cluster", Keys.EXEC_WORKERS: 3}
    if faulted:
        conf[Keys.FAULTS_SPEC] = SOAK_SPEC
        conf[Keys.FAULTS_SEED] = SOAK_SEED

    def run(jobspec, data: bytes, **kwargs) -> JobResult:
        return LocalJobRunner().run(jobspec(data, conf_overrides=conf, **kwargs))

    return CHAINS[name](run)


def total(results: list[JobResult], counter: Counter) -> int:
    return sum(result.counters.get(counter) for result in results)


@pytest.mark.chaos
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_pipeline_soak_is_byte_identical_under_faults(name: str) -> None:
    clean = run_chain(name, faulted=False)
    faulty = run_chain(name, faulted=True)

    assert [render_tsv(r) for r in faulty] == [render_tsv(r) for r in clean]
    assert [r.output_digest() for r in faulty] == [
        r.output_digest() for r in clean
    ]
    # Faults demonstrably fired and were survived.
    assert total(faulty, Counter.WORKER_CRASHES) > 0, name
    assert total(faulty, Counter.TASK_REEXECUTIONS) > 0, name
    # The clean reference run, meanwhile, recorded no recovery at all.
    assert total(clean, Counter.WORKER_CRASHES) == 0
    assert total(clean, Counter.TASK_REEXECUTIONS) == 0
