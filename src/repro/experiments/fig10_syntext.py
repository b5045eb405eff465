"""Figure 10 — combined-optimization savings over the SynText plane.

Paper: "the optimizations are most effective when the level of CPU
activity is moderate and when there is significant benefit from
applying combine() on intermediate data" — i.e. savings fall off at
high CPU-intensity (user code dominates, like WordPOSTag) and at high
storage-intensity (combining doesn't shrink data, like InvertedIndex's
upper-left corner vs WordCount's lower-left).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.report import Claim, check
from ..analysis.tables import render_grid
from ..apps.syntext import build_syntext
from ..config import Keys
from ..engine.runner import LocalJobRunner
from .common import config_overrides

EXPERIMENT = "fig10"

#: ``runall --fast`` arguments to :func:`run`.
FAST = {"scale": 0.03}


@dataclass
class Fig10Result:
    cpu_levels: tuple[float, ...]
    storage_levels: tuple[float, ...]
    savings_pct: list[list[float]]  # [storage][cpu]
    claims: list[Claim]

    def render(self) -> str:
        return render_grid(
            "Figure 10: % runtime work saved by combined optimizations (SynText)",
            "storage",
            list(self.storage_levels),
            "cpu",
            list(self.cpu_levels),
            self.savings_pct,
        )


def _total_work(cpu: float, storage: float, config: str, scale: float) -> float:
    overrides = dict(config_overrides(config))
    if overrides.get(Keys.FREQBUF_ENABLED):
        overrides.setdefault(Keys.FREQBUF_K, 128)
        overrides.setdefault(Keys.FREQBUF_SAMPLE_FRACTION, 0.02)
    app = build_syntext(
        cpu_intensity=cpu,
        storage_intensity=storage,
        scale=scale,
        conf_overrides=overrides,
    )
    result = LocalJobRunner().run(app.job)
    # Engine-level stand-in for job runtime: total serialized work.  The
    # SynText sweep compares a grid of *relative* savings, for which
    # total work and simulated cluster runtime move together (validated
    # by the Table III bench, which uses the full cluster model).
    return result.ledger.total()


def run(
    cpu_levels: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0),
    storage_levels: tuple[float, ...] = (0.0, 0.33, 0.66, 1.0),
    scale: float = 0.05,
) -> Fig10Result:
    savings: list[list[float]] = []
    for storage in storage_levels:
        row: list[float] = []
        for cpu in cpu_levels:
            base = _total_work(cpu, storage, "baseline", scale)
            comb = _total_work(cpu, storage, "combined", scale)
            row.append(100.0 * (1.0 - comb / base))
        savings.append(row)

    def cell(storage_idx: int, cpu_idx: int) -> float:
        return savings[storage_idx][cpu_idx]

    claims = [
        check(
            EXPERIMENT, "best savings at low storage-intensity",
            "WordCount-like corner is the sweet spot",
            cell(0, 0) - cell(len(storage_levels) - 1, 0),
            lambda v: v > 0.0, "{:+.1f}pp",
        ),
        check(
            EXPERIMENT, "savings fall off at extreme CPU-intensity",
            "CPU-dominated jobs (POS-like) gain little",
            cell(0, 0) - cell(0, len(cpu_levels) - 1),
            lambda v: v > 0.0, "{:+.1f}pp",
        ),
        check(
            EXPERIMENT, "low-CPU low-storage savings substantial",
            "tens of percent",
            cell(0, 0), lambda v: v > 10.0, "{:.1f}%",
        ),
        check(
            EXPERIMENT, "high-CPU high-storage savings small",
            "little left to save",
            cell(len(storage_levels) - 1, len(cpu_levels) - 1),
            lambda v: v < 25.0, "{:.1f}%",
        ),
    ]
    return Fig10Result(cpu_levels, storage_levels, savings, claims)
