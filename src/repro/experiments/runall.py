"""Run every reproduced experiment and write EXPERIMENTS.md.

Usage::

    python -m repro.experiments.runall [--fast] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import sys
import time

from ..analysis.report import Claim, render_claims
from . import (
    fig2_breakdown,
    fig3_zipf,
    fig7_prediction,
    fig8_costs,
    fig9_waittime,
    fig10_syntext,
    table2_idle,
    table3_local,
    table4_ec2,
)

EXPERIMENTS = [
    ("fig2", "Figure 2 — work breakdown", fig2_breakdown),
    ("table2", "Table II — thread idle time", table2_idle),
    ("fig3", "Figure 3 — corpus Zipf curve", fig3_zipf),
    ("fig7", "Figure 7 — predictor accuracy", fig7_prediction),
    ("fig8", "Figure 8 — abstraction cost reduction", fig8_costs),
    ("fig9", "Figure 9 — wait-time removal", fig9_waittime),
    ("table3", "Table III — local-cluster runtimes", table3_local),
    ("table4", "Table IV — EC2 runtimes", table4_ec2),
    ("fig10", "Figure 10 — SynText sweep", fig10_syntext),
]


#: Wall-clock companion to the modelled Table III.  Recorded, not
#: regenerated: seconds depend on the box, so this block changes only
#: when someone re-measures (``bench/run.py`` is the gated harness; the
#: per-config rows below use the same job, sizes and best-of rule).
MEASURED_TABLE3 = """\
### Table III, measured — WordCount wall-clock at the benchmark size

```
wordcount, scale 0.25 (10 000 lines / 1.04 MB, 120 000 map-output records),
8 splits, 2 reducers, serial backend, mem shuffle, seed 0.  job_s = best of
21 runs of LocalJobRunner().run(job) (3 fresh interpreters x 7, one discarded
warm-up each), parent and change alternating.  "modelled %" repeats the
table above (its own scale and cluster model) for comparison.
env: nproc 2 (shared), python 3.11.7, Linux-6.18.44-fc-v50-x86_64-with-glibc2.36,
     2026-10-03; parent = f931133 (object spill buffer by default, combine()
     round trip at every serialized combine site), this PR = packed buffer
     only, proven int fold per spill and in the merge, one framing pass per
     segment.  (The box ran ~20 % slower than on 2026-10-02, when the parent's
     baseline measured 1.106 s; compare within this table.)
------------------------------------------------------------------------------
               config   modelled %   parent job_s   % of base   PR job_s   % of base
------------------------------------------------------------------------------
             baseline        100.0          1.329       100.0      0.802       100.0
              freqopt         92.0          1.137        85.5      0.718        89.5
             spillopt         81.7          1.354       101.8      0.774        96.6
             combined         79.3          1.158        87.1      0.713        89.0
combined+node-combine            -          1.184        89.0      0.736        91.8
------------------------------------------------------------------------------
bench/run.py --trace 0, ten alternating pairs (seeds 1-10), median of each
run's best repetition (parent quartiles in brackets), change better in 10/10
pairs on every row:
  wc-baseline   1.345 s [1.338-1.353] -> 0.797 s  (-40.7 %)
  wc-optimized  1.190 s [1.171-1.194] -> 0.736 s  (-38.1 %)
  sort-net      0.948 s [0.935-0.966] -> 0.795 s  (-16.1 %)
  wc-cluster1   1.550 s [1.526-1.566] -> 1.018 s  (-34.3 %)
shuffle_bytes identical per seed on all four.  wc-optimized / wc-baseline:
parent 0.885, this PR 0.924 — both jobs lose ~0.45-0.55 s, the cheaper spill
path leaves a 0.41 hit rate less to save.
bench/run.py --trace 1, seed 0, wc-baseline: collector.collect_s 0.810 ->
0.562, collector.flush_s 0.252 -> 0.235; every count, ledger.*_units and the
digest identical.  The traced run hides the combiner's source, so it takes
the generic combine path on both commits (apps.combine_s 0.125 -> 0.098 is
the cheaper vint encode inside emit, ~0.3 us x 86 k, not the fold) and
trace.overhead_share rises 0.07 -> 0.35: the untraced run it is compared
with got faster by more.
The fold itself, untraced perf_counter brackets on the same job: per-spill
combine stage 0.278 -> 0.112 s, spill writes 0.067 -> 0.018 s, merge-site
combine_serialized 0.129 -> 0.066 s, merge writes 0.041 -> 0.009 s.
```
"""


def run_all(fast: bool = False) -> tuple[str, list[Claim], int]:
    """Run everything; returns (markdown, all claims, #failed)."""
    sections: list[str] = []
    all_claims: list[Claim] = []
    for exp_id, title, module in EXPERIMENTS:
        start = time.perf_counter()
        kwargs = {}
        if fast:
            if exp_id in ("fig2", "table2", "fig8", "fig9"):
                kwargs = {"scale": 0.04}
            elif exp_id == "table3":
                kwargs = {"scale": 0.06, "num_splits": 12}
            elif exp_id == "table4":
                kwargs = {"local_scale": 0.06, "num_splits": 24}
            elif exp_id == "fig10":
                kwargs = {"scale": 0.03}
            elif exp_id in ("fig3", "fig7"):
                kwargs = {"scale": 0.05}
        result = module.run(**kwargs)
        elapsed = time.perf_counter() - start
        sections.append(
            f"## {title}\n\n```\n{result.render()}\n\n"
            f"{render_claims(result.claims)}\n```\n\n"
            f"_ran in {elapsed:.1f}s_\n"
        )
        if exp_id == "table3":
            sections.append(MEASURED_TABLE3)
        all_claims.extend(result.claims)

    failed = sum(1 for c in all_claims if not c.holds)
    header = (
        "# EXPERIMENTS — paper vs measured\n\n"
        "Auto-generated by `python -m repro.experiments.runall`.\n\n"
        f"**{len(all_claims) - failed}/{len(all_claims)} shape claims hold.**\n"
        "Values are modelled work/seconds from the instrumented engine and the\n"
        "discrete-event cluster simulator — absolute magnitudes are not\n"
        "comparable to the paper's testbed, the *shapes* (who wins, rough\n"
        "factors, crossovers) are what each claim checks.\n\n"
        "## Known deviations from the paper's numbers\n\n"
        "* **Smaller optimization magnitudes for the text apps.** The paper's\n"
        "  8.5GB+ inputs make the frequency-buffering profiling window (s) a\n"
        "  negligible ~1% of each map task; our laptop-scale tasks need a\n"
        "  proportionally larger window (derived with the paper's own §III-C\n"
        "  formula `n·s ≥ k^α·H_{m,α}`), so a visible fraction of each first\n"
        "  task runs unoptimized and combined savings land at ~15-25% for\n"
        "  WordCount/InvertedIndex instead of ~30-39%. Directions, orderings\n"
        "  and crossovers match throughout.\n"
        "* **Relational apps' spill-matcher gains.** Our cost calibration\n"
        "  leaves AccessLogJoin's slower (map) thread with essentially no\n"
        "  steady-state wait in the baseline — there is nothing for\n"
        "  spill-matcher to remove, so its Table III row is flat where the\n"
        "  paper reports a 7% gain; the corresponding fig9 claim checks that\n"
        "  the controller at least adds no wait.\n"
        "* **Thread-idle magnitudes (Table II).** Both-threads-idle behaviour\n"
        "  under static x=0.8, WordPOSTag's ~95% support idleness, and the\n"
        "  relational support-idle dominance all reproduce; exact percentages\n"
        "  differ with our calibrated produce/consume ratios.\n"
        "* **Absolute seconds are modelled.** Node speed is an arbitrary\n"
        "  constant; every claim is a ratio. The cost-model ablation bench\n"
        "  (`benchmarks/test_ablation_costmodel.py`) verifies headline\n"
        "  directions survive ±50% perturbations of each constant.\n"
        "* **Measured seconds trail the modelled saving, and SpillOpt saves\n"
        "  none.** Table III's measured rows: frequency buffering wins on the\n"
        "  clock (Combined 0.89x Baseline best-of-21; the gated benchmark's\n"
        "  `wc-optimized`/`wc-baseline` is 0.92) but by less than before this\n"
        "  spill path (0.87-0.89) and far less than the paper's 0.61.  The ratio\n"
        "  *rose* while both jobs got ~0.45-0.55 s faster: the packed buffer,\n"
        "  the proven int fold at the per-spill and merge combine sites and\n"
        "  one framing pass per segment took 40 % off Baseline, and a record\n"
        "  the frequency buffer absorbs (hit rate 0.41) now skips a spill path\n"
        "  that costs that much less.  The paper's claim — framework work\n"
        "  between map() and reduce() dominates — still holds on the clock:\n"
        "  the collector seam is 0.71 of the traced Baseline run's task time,\n"
        "  user map() 0.09.  What remains shared is the reduce-side and merge-side\n"
        "  record-at-a-time decode (ROADMAP item 1(c), second half).\n"
        "  Spill-matcher's measured row is flat by construction: on the\n"
        "  serial backend sort/combine/spill run inline, so there is no\n"
        "  second thread whose wait it could remove — its gain exists only in\n"
        "  the modelled pipeline (and `--live-pipeline`).\n\n"
    )
    return header + "\n".join(sections), all_claims, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller datasets")
    parser.add_argument("--out", default=None, help="write markdown to this path")
    args = parser.parse_args(argv)

    markdown, claims, failed = run_all(fast=args.fast)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"wrote {args.out}: {len(claims) - failed}/{len(claims)} claims hold")
    else:
        print(markdown)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
