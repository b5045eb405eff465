"""Figure 7 — % of intermediate values removed vs frequent-key buffer
size, for SpaceSaving (s=0.1) / Ideal / LRU, on the text corpus and the
access log.

Paper: "using frequency-buffering with Metwally et al.'s predictor
misses only about 6% of the records from the text corpus compared with
Ideal, and only about 10% of the records in the access log setting.
The LRU [is markedly worse]."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import Claim, check
from ..analysis.tables import render_series
from ..core.freqbuf.predictors import (
    LRUStrategy,
    ideal_strategy,
    simulate_removal,
    spacesaving_strategy,
)
from ..data.accesslog import AccessLogSpec, generate_user_visits
from ..data.textcorpus import CorpusSpec, generate_corpus

EXPERIMENT = "fig7"

#: ``runall --fast`` arguments to :func:`run`.
FAST = {"scale": 0.05}


@dataclass
class Fig7Curves:
    dataset: str
    buffer_sizes: list[int]
    spacesaving: list[float]
    ideal: list[float]
    lru: list[float]

    def render(self) -> str:
        from ..analysis.plots import render_scatter

        series = {
            "spacesaving": self.spacesaving,
            "ideal": self.ideal,
            "lru": self.lru,
        }
        table = render_series(
            f"Figure 7 ({self.dataset}): fraction of intermediate values removed",
            "k",
            self.buffer_sizes,
            series,
        )
        plot = render_scatter(
            f"removal fraction vs buffer size k ({self.dataset})",
            self.buffer_sizes,
            series,
            logx=True,
        )
        return table + "\n\n" + plot


@dataclass
class Fig7Result:
    text: Fig7Curves
    log: Fig7Curves
    claims: list[Claim]

    def render(self) -> str:
        return self.text.render() + "\n\n" + self.log.render()


def _word_stream(scale: float, seed: int) -> list[str]:
    data = generate_corpus(CorpusSpec(seed=seed).scaled(scale))
    return [w for line in data.decode("utf-8").splitlines() for w in line.split()]


def _url_stream(scale: float, seed: int) -> list[str]:
    data = generate_user_visits(AccessLogSpec(seed=seed).scaled(scale))
    return [line.split("|")[1] for line in data.decode("utf-8").splitlines()]


def _curves(dataset: str, stream: list[str], buffer_sizes: list[int], sample_fraction: float) -> Fig7Curves:
    space, ideal, lru = [], [], []
    for k in buffer_sizes:
        space.append(simulate_removal(stream, spacesaving_strategy(stream, k, sample_fraction)))
        ideal.append(simulate_removal(stream, ideal_strategy(stream, k)))
        lru.append(simulate_removal(stream, LRUStrategy(k)))
    return Fig7Curves(dataset, buffer_sizes, space, ideal, lru)


def run(
    scale: float = 0.1,
    buffer_sizes: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024),
    sample_fraction: float = 0.1,  # the paper's Figure 7 uses s = 0.1
    seed: int = 0,
) -> Fig7Result:
    text = _curves("text corpus", _word_stream(scale, seed), list(buffer_sizes), sample_fraction)
    log = _curves("access log", _url_stream(scale, seed), list(buffer_sizes), sample_fraction)

    mid = len(buffer_sizes) // 2
    claims = [
        check(
            EXPERIMENT, "text: SpaceSaving vs Ideal gap",
            "~6% of records missed vs Ideal",
            100.0 * (text.ideal[mid] - text.spacesaving[mid]),
            lambda v: -2.0 <= v <= 15.0, "{:.1f}pp",
        ),
        check(
            EXPERIMENT, "log: SpaceSaving vs Ideal gap",
            "~10% of records missed vs Ideal",
            100.0 * (log.ideal[mid] - log.spacesaving[mid]),
            lambda v: -2.0 <= v <= 20.0, "{:.1f}pp",
        ),
        check(
            EXPERIMENT, "LRU clearly below SpaceSaving (text, mid buffer)",
            "LRU markedly worse",
            100.0 * (text.spacesaving[mid] - text.lru[mid]),
            lambda v: v > 0.0, "{:+.1f}pp",
        ),
        check(
            EXPERIMENT, "removal grows with buffer size (text, SpaceSaving)",
            "monotone-ish growth",
            100.0 * (text.spacesaving[-1] - text.spacesaving[0]),
            lambda v: v > 0.0, "{:+.1f}pp",
        ),
    ]
    return Fig7Result(text, log, claims)
