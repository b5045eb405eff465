"""Figure 3 — rank-frequency distribution of corpus words.

The paper plots its Wikipedia corpus's word frequencies against rank on
log-log axes and observes Zipf's law (slope ≈ -1).  We reproduce with
the synthetic corpus: generate, count, rank, and fit the exponent; the
claim holds if the empirical curve is Zipf-like with α near the
generator's target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.report import Claim, check
from ..analysis.tables import render_series
from ..core.freqbuf.zipf import fit_alpha
from ..data.textcorpus import CorpusSpec, corpus_word_frequencies, generate_corpus

EXPERIMENT = "fig3"

#: ``runall --fast`` arguments to :func:`run`.
FAST = {"scale": 0.05}


@dataclass
class Fig3Result:
    ranks: list[int]
    frequencies: list[int]
    fitted_alpha: float
    target_alpha: float
    total_words: int
    unique_words: int
    claims: list[Claim]

    def render(self) -> str:
        # Log-spaced sample of the rank-frequency curve.
        indices = sorted(
            {int(v) for v in np.logspace(0, np.log10(len(self.ranks)), 20)}
        )
        xs = [self.ranks[i - 1] for i in indices]
        series = {"frequency": [float(self.frequencies[i - 1]) for i in indices]}
        header = (
            f"Figure 3: corpus rank-frequency (fitted alpha={self.fitted_alpha:.3f}, "
            f"{self.total_words} words, {self.unique_words} unique)"
        )
        from ..analysis.plots import render_scatter

        plot = render_scatter(
            "log-log rank-frequency (a straight line of slope -alpha = Zipf)",
            xs,
            series,
            logx=True,
            logy=True,
        )
        return render_series(header, "rank", xs, series, "{:.0f}") + "\n\n" + plot


def run(scale: float = 0.15, seed: int = 0) -> Fig3Result:
    spec = CorpusSpec(seed=seed).scaled(scale)
    data = generate_corpus(spec)
    counts = corpus_word_frequencies(data)
    frequencies = sorted(counts.values(), reverse=True)
    alpha = fit_alpha(frequencies)

    claims = [
        check(
            EXPERIMENT, "rank-frequency is Zipfian",
            f"alpha ~= {spec.alpha:.1f} (paper: Zipf's law on its corpus)",
            alpha, lambda v: 0.6 <= v <= 1.4, "alpha={:.3f}",
        ),
        check(
            EXPERIMENT, "head dominance (top-100 coverage)",
            "frequent keys cover a large stream share",
            100.0 * sum(frequencies[:100]) / sum(frequencies),
            lambda v: v > 25.0, "{:.1f}%",
        ),
    ]
    return Fig3Result(
        ranks=list(range(1, len(frequencies) + 1)),
        frequencies=frequencies,
        fitted_alpha=alpha,
        target_alpha=spec.alpha,
        total_words=sum(frequencies),
        unique_words=len(frequencies),
        claims=claims,
    )
