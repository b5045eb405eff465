"""Figure 2 — normalized serialized-work breakdown of the six apps.

Paper: "execution of actual user-defined code takes a surprisingly
small portion of the time for all applications except WordPOSTag.  The
total only goes over 50% for WordPOSTag and AccessLogJoin. ... For most
applications, the majority of the time is spent on work that just
supports the MapReduce model itself."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.breakdown import OP_ORDER, Breakdown
from ..analysis.report import Claim, check
from ..analysis.tables import render_table
from ..apps.registry import APP_NAMES
from .common import build_engine_app as build_app, job_breakdown, run_engine_job

EXPERIMENT = "fig2"

#: ``runall --fast`` arguments to :func:`run`.
FAST = {"scale": 0.04}


@dataclass
class Fig2Result:
    breakdowns: dict[str, Breakdown]
    claims: list[Claim]

    def render(self) -> str:
        headers = ["app", "user%"] + [op.value for op in OP_ORDER]
        rows = []
        for name, b in self.breakdowns.items():
            rows.append(
                [name, 100.0 * b.user_share]
                + [100.0 * b.share(op) for op in OP_ORDER]
            )
        return render_table(
            "Figure 2: serialized work breakdown (% of total), baseline",
            headers,
            rows,
        )


def run(scale: float = 0.08, apps: tuple[str, ...] = APP_NAMES) -> Fig2Result:
    breakdowns: dict[str, Breakdown] = {}
    for name in apps:
        app = build_app(name, "baseline", scale=scale)
        breakdowns[name] = job_breakdown(run_engine_job(app))

    claims: list[Claim] = []
    for name, b in breakdowns.items():
        user_pct = 100.0 * b.user_share
        if name in ("wordpostag",):
            claims.append(check(
                EXPERIMENT, f"{name} user-code share", "> 50% (dominant)",
                user_pct, lambda v: v > 50.0, "{:.1f}%",
            ))
        elif name in ("accesslogjoin",):
            claims.append(check(
                EXPERIMENT, f"{name} user-code share", "approaches/exceeds 50%",
                user_pct, lambda v: v > 35.0, "{:.1f}%",
            ))
        else:
            claims.append(check(
                EXPERIMENT, f"{name} user-code share", "< 50% (framework dominates)",
                user_pct, lambda v: v < 50.0, "{:.1f}%",
            ))
    if "wordcount" in breakdowns:
        b = breakdowns["wordcount"]
        from ..engine.instrumentation import Op

        post_map = sum(
            b.share(op) for op in (Op.EMIT, Op.SORT, Op.SPILL_IO, Op.MERGE, Op.SHUFFLE)
        )
        claims.append(check(
            EXPERIMENT, "wordcount post-map framework ops",
            "major share (targets of freq-buffering)",
            100.0 * post_map, lambda v: v > 30.0, "{:.1f}%",
        ))
    return Fig2Result(breakdowns, claims)
