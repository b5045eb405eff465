"""Table II — % idle time of the map and support threads (baseline).

Paper values: WordCount 38.01/34.33, InvertedIndex 34.86/33.98,
WordPOSTag 0.00/95.14, AccessLogSum 19.09/58.33, AccessLogJoin
19.39/54.38, PageRank 39.78/29.32.  The shape criteria: WordPOSTag's
support thread is almost entirely idle while its map thread never is;
the relational apps idle their support thread far more than their map
thread; WordCount/InvertedIndex idle both threads substantially.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.idle import IdleReport
from ..analysis.report import Claim, check
from ..analysis.tables import render_table
from ..apps.registry import APP_NAMES
from .common import build_engine_app as build_app, job_idle, run_engine_job

EXPERIMENT = "table2"

#: ``runall --fast`` arguments to :func:`run`.
FAST = {"scale": 0.04}

PAPER_IDLE: dict[str, tuple[float, float]] = {
    "wordcount": (38.01, 34.33),
    "invertedindex": (34.86, 33.98),
    "wordpostag": (0.00, 95.14),
    "accesslogsum": (19.09, 58.33),
    "accesslogjoin": (19.39, 54.38),
    "pagerank": (39.78, 29.32),
}


@dataclass
class Table2Result:
    reports: dict[str, IdleReport]
    claims: list[Claim]

    def render(self) -> str:
        rows = [
            [
                name,
                report.map_idle_pct,
                PAPER_IDLE[name][0],
                report.support_idle_pct,
                PAPER_IDLE[name][1],
            ]
            for name, report in self.reports.items()
        ]
        return render_table(
            "Table II: map/support thread idle time (%), baseline",
            ["app", "map idle", "(paper)", "support idle", "(paper)"],
            rows,
        )


def run(scale: float = 0.08, apps: tuple[str, ...] = APP_NAMES) -> Table2Result:
    reports: dict[str, IdleReport] = {}
    for name in apps:
        app = build_app(name, "baseline", scale=scale)
        reports[name] = job_idle(run_engine_job(app))

    claims: list[Claim] = []
    for name, report in reports.items():
        if name == "wordpostag":
            claims.append(check(
                EXPERIMENT, "wordpostag support idle", "95.14% (nearly all)",
                report.support_idle_pct, lambda v: v > 80.0, "{:.1f}%",
            ))
            claims.append(check(
                EXPERIMENT, "wordpostag map idle", "0.00% (never idle)",
                report.map_idle_pct, lambda v: v < 5.0, "{:.1f}%",
            ))
        elif name in ("accesslogsum", "accesslogjoin"):
            claims.append(check(
                EXPERIMENT, f"{name} support idles more than map",
                f"{PAPER_IDLE[name][1]:.0f}% vs {PAPER_IDLE[name][0]:.0f}%",
                report.support_idle_pct - report.map_idle_pct,
                lambda v: v > 15.0, "{:+.1f}pp",
            ))
        else:
            claims.append(check(
                EXPERIMENT, f"{name} both threads substantially idle",
                f"{PAPER_IDLE[name][0]:.0f}%/{PAPER_IDLE[name][1]:.0f}%",
                min(report.map_idle_pct, report.support_idle_pct),
                lambda v: v > 15.0, "min {:.1f}%",
            ))
    return Table2Result(reports, claims)
