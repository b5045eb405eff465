"""Iterative PageRank: chaining MapReduce jobs until convergence.

The paper benchmarks a single PageRank iteration; real PageRank chains
iterations, feeding each job's output back as the next job's input.
This example runs the chain on the engine (with the combined
optimizations on), tracks rank movement per iteration, and
cross-checks the final ranks against an independent plain-Python power
iteration over the same graph.

Run:  python examples/pagerank_iterations.py
"""

from repro.apps.pagerank import PageRankCombiner, PageRankMapper, PageRankReducer
from repro.config import JobConf, Keys
from repro.data.webgraph import WebGraphSpec, generate_webgraph, parse_webgraph
from repro.engine import JobSpec, LocalJobRunner, TextInput
from repro.serde import Text

ITERATIONS = 8


def job_for(data: bytes, iteration: int) -> JobSpec:
    conf = JobConf({
        Keys.SPILL_BUFFER_BYTES: 32 * 1024,
        Keys.NUM_REDUCERS: 2,
        Keys.FREQBUF_ENABLED: True,
        Keys.FREQBUF_K: 64,
        Keys.FREQBUF_SAMPLE_FRACTION: 0.1,
        Keys.SPILLMATCHER_ENABLED: True,
    })
    return JobSpec(
        name=f"pagerank-iter{iteration}",
        input_format=TextInput(data, split_size=max(1, len(data) // 4)),
        mapper_factory=PageRankMapper,
        reducer_factory=PageRankReducer,
        combiner_factory=PageRankCombiner,
        map_output_key_cls=Text,
        map_output_value_cls=Text,
        conf=conf,
    )


def output_to_input(result) -> tuple[bytes, dict[str, float]]:
    """Reducer output (url -> "rank<TAB>links") becomes the next crawl file."""
    lines = []
    ranks: dict[str, float] = {}
    for key, value in result.output_pairs():
        rank_text, links = value.value.split("\t")
        ranks[key.value] = float(rank_text)
        lines.append(f"{key.value}\t{rank_text}\t{links}")
    return ("\n".join(sorted(lines)) + "\n").encode(), ranks


def main() -> None:
    spec = WebGraphSpec(seed=3).scaled(0.05)
    data = generate_webgraph(spec)
    graph = parse_webgraph(data)
    previous = {url: rank for url, (rank, _) in graph.items()}

    print(f"PageRank over {spec.pages if spec.pages < len(graph) else len(graph)} pages, "
          f"{ITERATIONS} chained MapReduce jobs:")
    for iteration in range(ITERATIONS):
        result = LocalJobRunner().run(job_for(data, iteration))
        data, ranks = output_to_input(result)
        delta = sum(abs(ranks.get(u, 0.0) - previous.get(u, 0.0)) for u in ranks)
        print(f"  iter {iteration}: total rank movement = {delta:.6f}")
        previous = ranks

    # Independent check: plain-Python power iteration (no damping, to
    # match the paper's summation semantics) over the same structure.
    reference = {url: 1.0 / len(graph) for url in graph}
    for _ in range(ITERATIONS):
        nxt = {url: 0.0 for url in graph}
        for url, (_, links) in graph.items():
            if links:
                share = reference[url] / len(links)
                for target in links:
                    nxt[target] += share
        reference = nxt

    worst = max(abs(previous.get(u, 0.0) - reference[u]) for u in reference)
    print(f"max |MapReduce - reference| after {ITERATIONS} iterations: {worst:.2e}")
    assert worst < 1e-6, "chained MapReduce diverged from the reference"
    top = sorted(previous.items(), key=lambda kv: -kv[1])[:5]
    print("top pages:")
    for url, rank in top:
        print(f"  {url:28s} {rank:.6f}")


if __name__ == "__main__":
    main()
