"""Figure 8 — abstraction-cost breakdown, baseline vs frequency-buffering.

Paper: "frequency-buffering works well when the baseline application
spends considerable time during the sort and emit operations: 40% of
the abstraction costs are reduced for WordCount, 30% for InvertedIndex,
and 45% for WordPOSTag. ... frequency-buffering removes just shy of 7%
of the abstraction costs in AccessLogSum, and it obtains only 3%
reduction for AccessLogJoin" (with PageRank in between), and "time
spent in the emit operation ... slightly increases for the
log-processing [apps] due to the small profiling and hashing overhead."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.breakdown import Breakdown, abstraction_cost_reduction
from ..analysis.report import Claim, check
from ..analysis.tables import render_table
from ..apps.registry import APP_NAMES
from .common import build_engine_app as build_app, job_breakdown, run_engine_job

EXPERIMENT = "fig8"

#: ``runall --fast`` arguments to :func:`run`.
FAST = {"scale": 0.04}

#: Paper's quoted abstraction-cost reductions (percent).
PAPER_REDUCTION = {
    "wordcount": 40.0,
    "invertedindex": 30.0,
    "wordpostag": 45.0,
    "accesslogsum": 7.0,
    "accesslogjoin": 3.0,
}


@dataclass
class Fig8Result:
    baseline: dict[str, Breakdown]
    freq: dict[str, Breakdown]
    reduction_pct: dict[str, float]
    claims: list[Claim]

    def render(self) -> str:
        rows = []
        for name in self.baseline:
            rows.append([
                name,
                self.baseline[name].framework_work(),
                self.freq[name].framework_work(),
                self.reduction_pct[name],
                PAPER_REDUCTION.get(name, float("nan")),
            ])
        return render_table(
            "Figure 8: abstraction cost, baseline vs frequency-buffering",
            ["app", "baseline fw work", "freqbuf fw work", "reduction %", "paper %"],
            rows,
        )


def run(scale: float = 0.08, apps: tuple[str, ...] = APP_NAMES) -> Fig8Result:
    baseline: dict[str, Breakdown] = {}
    freq: dict[str, Breakdown] = {}
    reduction: dict[str, float] = {}
    for name in apps:
        baseline[name] = job_breakdown(run_engine_job(build_app(name, "baseline", scale=scale)))
        freq[name] = job_breakdown(run_engine_job(build_app(name, "freq", scale=scale)))
        reduction[name] = 100.0 * abstraction_cost_reduction(baseline[name], freq[name])

    claims: list[Claim] = []
    for name in ("wordcount", "invertedindex", "wordpostag"):
        if name in reduction:
            claims.append(check(
                EXPERIMENT, f"{name} abstraction-cost reduction",
                f"~{PAPER_REDUCTION[name]:.0f}% (substantial)",
                reduction[name], lambda v: v > 10.0, "{:.1f}%",
            ))
    for name in ("accesslogsum", "accesslogjoin"):
        if name in reduction:
            claims.append(check(
                EXPERIMENT, f"{name} abstraction-cost reduction",
                f"~{PAPER_REDUCTION[name]:.0f}% (small)",
                reduction[name], lambda v: v < 20.0, "{:.1f}%",
            ))
    if "pagerank" in reduction and "accesslogjoin" in reduction:
        claims.append(check(
            EXPERIMENT, "pagerank reduction exceeds the weakest relational app",
            "PageRank gains more than AccessLogJoin",
            reduction["pagerank"] - reduction["accesslogjoin"],
            lambda v: v > 0.0, "{:+.1f}pp",
        ))
    if "wordcount" in reduction and "accesslogsum" in reduction:
        claims.append(check(
            EXPERIMENT, "text apps gain more than relational apps",
            "ordering preserved",
            reduction["wordcount"] - reduction["accesslogsum"],
            lambda v: v > 10.0, "{:+.1f}pp",
        ))
    return Fig8Result(baseline, freq, reduction, claims)
