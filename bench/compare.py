"""Compare two result.json files of the benchmark, metric by metric.

    python bench/compare.py A.json B.json [--layers]

A is the parent (or the first set of runs), B the change (or the second
set).  One row per (workload, end-to-end metric): each metric's
direction and bound come from BENCHMARK.json.

    regressed    B's median is worse than A's by more than the bound
    better       B's median is better than A's by more than the bound
    unresolved   neither, but the quartile spread of one side is wider
                 than the bound, so "no change" cannot be told from
                 noise — unless every sample of B beats every sample of A
    unchanged    neither, and both sides are steadier than the bound

Exits non-zero if any row regressed, or if either side recorded failed
job runs.  ``better`` is a label, not a claim: a gain needs ten pairs of
runs (see README.md).  ``--layers`` adds the per-layer metrics, which
have no bound, as plain differences.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def relative_spread(metric: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    if not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(label, change)`` where change > 0 means B is worse, as a share of A."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "better", change
    if max(relative_spread(a), relative_spread(b)) > bound:
        a_best = min(a["samples"]) if better == "lower" else max(a["samples"])
        b_worst = max(b["samples"]) if better == "lower" else min(b["samples"])
        if sign * (b_worst - a_best) < 0:
            return "better", change
        return "unresolved", change
    return "unchanged", change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()
    declared = json.loads(DECLARATION.read_text())
    a, b = (json.loads(path.read_text())["workloads"] for path in (args.a, args.b))

    bad = 0
    print(f"{'workload':14} {'metric':30} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in declared["workloads"]):
        if workload not in a or workload not in b:
            continue
        for side, runs in (("A", a[workload]), ("B", b[workload])):
            if runs["failed"]:
                print(f"{workload:14} {side} has {runs['failed']} failed job runs "
                      f"of {runs['attempted']}")
                bad += 1
        for metric in declared["end_to_end"]:
            name = metric["name"]
            ma, mb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            label, change = verdict(ma, mb, metric["better"], metric["bound"])
            bad += label == "regressed"
            print(f"{workload:14} {name:30} {ma['value']:>14.6g} {mb['value']:>14.6g} "
                  f"{change:>+9.2%} {metric['bound']:>6.2f}  {label}")
        if args.layers:
            for metric in declared["per_layer"]:
                name = metric["name"]
                va = a[workload].get("per_layer", {}).get(name, {}).get("value")
                vb = b[workload].get("per_layer", {}).get(name, {}).get("value")
                if va is None or vb is None:
                    continue
                change = f"{(vb - va) / abs(va):>+9.2%}" if va else f"{'':>9}"
                print(f"{workload:14} {name:30} {va:>14.6g} {vb:>14.6g} {change}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
