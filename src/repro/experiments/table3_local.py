"""Table III — overall local-cluster runtimes, 6 apps x 4 configs.

Paper values (seconds, % of baseline):

    WordCount      571 | Freq 448 (78.4%) | Spill 449 (78.7%) | Comb 347 (69.9% -> the 39.1% headline... )
    InvertedIndex  816 | 634 (77.8%) | 636 (78.0%) | 536 (65.7%)
    WordPOSTag   20170 | 20057 (99.4%) | 20177 (100.0%) | 19781 (98.1%)
    AccessLogSum   203 | 198 (97.4%) | 196 (96.6%) | 194 (95.4%)
    AccessLogJoin  345 | 346 (100.3%) | 320 (92.7%) | 331 (96.0%)
    PageRank       694 | 645 (92.9%) | 665 (96.3%) | 613 (88.2%)

(The paper's headline "up to 39.1%" is WordCount combined: 347/571 =
60.9%... i.e. 1 - 347/571 = 39.2% including rounding; Table III's 69.9%
row label counts a different normalization — we check the shape:
combined saves ~20-40% on WordCount/InvertedIndex, ~2% on WordPOSTag,
<~12% on the relational apps, ~12% on PageRank.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import Claim, check
from ..analysis.tables import render_table
from ..apps.registry import APP_NAMES
from ..cluster.jobtracker import ClusterJobResult, ClusterJobRunner
from ..cluster.specs import local_cluster
from ..config import Keys
from .common import OPTIMIZATION_CONFIGS, build_app

EXPERIMENT = "table3"

#: ``runall --fast`` arguments to :func:`run`.
FAST = {"scale": 0.06, "num_splits": 12}

PAPER_TABLE3 = {
    "wordcount": {"baseline": 571, "freq": 448, "spill": 449, "combined": 347},
    "invertedindex": {"baseline": 816, "freq": 634, "spill": 636, "combined": 536},
    "wordpostag": {"baseline": 20170, "freq": 20057, "spill": 20177, "combined": 19781},
    "accesslogsum": {"baseline": 203, "freq": 198, "spill": 196, "combined": 194},
    "accesslogjoin": {"baseline": 345, "freq": 346, "spill": 320, "combined": 331},
    "pagerank": {"baseline": 694, "freq": 645, "spill": 665, "combined": 613},
}


@dataclass
class Table3Result:
    runtimes: dict[str, dict[str, float]]  # app -> config -> modelled seconds
    results: dict[str, dict[str, ClusterJobResult]]
    claims: list[Claim]

    def pct(self, app: str, config: str) -> float:
        return 100.0 * self.runtimes[app][config] / self.runtimes[app]["baseline"]

    def render(self) -> str:
        rows = []
        for app, by_config in self.runtimes.items():
            for config in OPTIMIZATION_CONFIGS:
                paper = PAPER_TABLE3.get(app, {})
                paper_pct = (
                    100.0 * paper[config] / paper["baseline"] if config in paper else float("nan")
                )
                rows.append([
                    app, config, by_config[config], self.pct(app, config), paper_pct,
                ])
        return render_table(
            "Table III: local-cluster runtimes (modelled seconds; % of baseline)",
            ["app", "config", "runtime", "% of baseline", "paper %"],
            rows,
        )


def run(
    scale: float = 0.12,
    apps: tuple[str, ...] = APP_NAMES,
    num_splits: int = 12,
) -> Table3Result:
    cluster = local_cluster()
    # 16 KiB spill buffer: keeps per-map-task intermediate data at ~10-20
    # buffer volumes, the same spills-per-task regime as the paper's
    # io.sort.mb=100MB against multi-GB inputs.
    extra = {
        Keys.NUM_REDUCERS: cluster.total_reduce_slots,
        Keys.SPILL_BUFFER_BYTES: 16 * 1024,
    }
    runtimes: dict[str, dict[str, float]] = {}
    results: dict[str, dict[str, ClusterJobResult]] = {}
    for name in apps:
        runtimes[name] = {}
        results[name] = {}
        for config in OPTIMIZATION_CONFIGS:
            app = build_app(name, config, scale=scale, extra_conf=extra, num_splits=num_splits)
            result = ClusterJobRunner(cluster).run(app)
            runtimes[name][config] = result.runtime_seconds
            results[name][config] = result

    claims: list[Claim] = []

    def pct(app: str, config: str) -> float:
        return 100.0 * runtimes[app][config] / runtimes[app]["baseline"]

    for name in ("wordcount", "invertedindex"):
        if name in runtimes:
            claims.append(check(
                EXPERIMENT, f"{name} combined saving",
                f"{100 - 100 * PAPER_TABLE3[name]['combined'] / PAPER_TABLE3[name]['baseline']:.0f}% saved",
                100.0 - pct(name, "combined"), lambda v: 15.0 <= v <= 60.0, "{:.1f}%",
            ))
            claims.append(check(
                EXPERIMENT, f"{name} each single optimization helps",
                "freq < baseline and spill < baseline",
                max(pct(name, "freq"), pct(name, "spill")),
                lambda v: v < 100.0, "worst {:.1f}%",
            ))
            claims.append(check(
                EXPERIMENT, f"{name} combined beats both singles",
                "combined is fastest",
                min(pct(name, "freq"), pct(name, "spill")) - pct(name, "combined"),
                lambda v: v > 0.0, "{:+.1f}pp",
            ))
    if "wordpostag" in runtimes:
        claims.append(check(
            EXPERIMENT, "wordpostag combined saving",
            "~2% (map CPU dominates; near-zero either way)",
            100.0 - pct("wordpostag", "combined"),
            lambda v: -2.0 <= v <= 10.0, "{:.1f}%",
        ))
    for name in ("accesslogsum", "accesslogjoin"):
        if name in runtimes:
            claims.append(check(
                EXPERIMENT, f"{name} combined saving",
                "modest (<~12%)",
                100.0 - pct(name, "combined"), lambda v: -3.0 <= v <= 20.0, "{:.1f}%",
            ))
    if "pagerank" in runtimes and "accesslogsum" in runtimes:
        claims.append(check(
            EXPERIMENT, "pagerank saves more than accesslogsum",
            "11.8% vs 4.6%",
            pct("accesslogsum", "combined") - pct("pagerank", "combined"),
            lambda v: v > 0.0, "{:+.1f}pp",
        ))
    if "wordcount" in runtimes and "accesslogsum" in runtimes:
        claims.append(check(
            EXPERIMENT, "text apps save far more than relational",
            "30%+ vs <5%",
            pct("accesslogsum", "combined") - pct("wordcount", "combined"),
            lambda v: v > 10.0, "{:+.1f}pp",
        ))
    return Table3Result(runtimes, results, claims)
