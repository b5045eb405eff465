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
     2026-10-03; parent = 093b60f (heap merge in Python, generator segment
     decoder, per-group charges in the reduce loop), this PR = merge as one
     stable sort over the concatenated runs, one-pass list decoder, reduce
     loop settled in bulk.
-------------------------------------------------------------------------------
               config   modelled %   parent job_s   % of base   PR job_s   % of base
-------------------------------------------------------------------------------
             baseline        100.0          0.788       100.0      0.685       100.0
              freqopt         92.0          0.718        91.0      0.611        89.3
             spillopt         81.7          0.820       104.0      0.693       101.3
             combined         79.3          0.752        95.4      0.622        90.8
combined+node-combine            -          0.743        94.2      0.650        94.9
-------------------------------------------------------------------------------
bench/run.py --trace 0, ten alternating pairs (seeds 1-10), median of each
run's best repetition (parent quartiles in brackets), change better in 10/10
pairs on every row but wc-optimized (9/10; seed 1's change run hit a slow
phase, setup_s +23 % in the same run):
  sort-net      0.802 s [0.780-0.819] -> 0.579 s  (-27.8 %)
  wc-baseline   0.823 s [0.815-0.840] -> 0.701 s  (-14.9 %)
  wc-optimized  0.761 s [0.751-0.778] -> 0.646 s  (-15.1 %)
  wc-cluster1   1.010 s [0.999-1.020] -> 0.891 s  (-11.8 %)
shuffle_bytes identical per seed on all four; peak_rss_mb 111.5 -> 109.5 on
sort-net, within 0.5 MB elsewhere.  wc-optimized / wc-baseline: parent 0.924,
this PR 0.922 — both jobs share every merge, both lose ~0.12 s, the ratio
does not move.
bench/run.py --trace 1, seed 0 (two pairs per workload; the first sort-net
pair ran in a slow phase, both sides ~2x, and is reported in CHANGES.md):
  sort-net     collector.flush_s 0.218 -> 0.174, reducetask.framework_s
               0.361 -> 0.203, reducetask.wall_s 0.393 -> 0.225; apps.map_s
               0.053 -> 0.059 (flat), apps.reduce_s 0.031 -> 0.023 (the span
               includes emit's serialized_size(), which no longer re-encodes)
  wc-baseline  collector.flush_s 0.238 -> 0.179, reducetask.framework_s
               0.094 -> 0.063; collect_s 0.572 -> 0.559, map_s, combine_s flat
every count, ledger.*_units and the digest identical.
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
        "  clock (Combined 0.91x Baseline best-of-21; the gated benchmark's\n"
        "  `wc-optimized`/`wc-baseline` is 0.92) but by far less than the\n"
        "  paper's 0.61.  The packed spill path (PR 21) raised the ratio from\n"
        "  0.87-0.89 while taking 40 % off Baseline: a record the frequency\n"
        "  buffer absorbs (hit rate 0.41) skips a spill path that costs that\n"
        "  much less.  Moving every merge into one C-level stable sort, the\n"
        "  segment decode into one pass and the reduce loop's accounting into\n"
        "  one settlement (ROADMAP item 1(c), second half) took another\n"
        "  ~0.12 s off *both* jobs — they share every merge — so the benchmark\n"
        "  ratio did not move (0.924 -> 0.922) while `sort-net`, which is all\n"
        "  merge and shuffle, got 28 % faster.  The paper's claim — framework\n"
        "  work between map() and reduce() dominates — still holds on the\n"
        "  clock: the collector seam is 0.73 of the traced Baseline run's task\n"
        "  time, user map() 0.09.\n"
        "  Spill-matcher's measured row is flat by construction: on the\n"
        "  serial backend sort/combine/spill run inline, so there is no\n"
        "  second thread whose wait it could remove — its gain exists only in\n"
        "  the modelled pipeline.\n"
        "* **No live spill pipeline: on CPython the support thread never got a\n"
        "  second core.** The live spill pipeline (conf key\n"
        "  `repro.exec.live.pipeline`) ran each map task's sort/combine/spill\n"
        "  on a real support thread and fed spill-matcher measured `T_p`/`T_c`\n"
        "  (Eq. 1 unchanged).  Measured on the last commit that had it\n"
        "  (`2435e37`; 2 shared vCPUs, Xeon, CPython 3.11; scale 0.25, 8\n"
        "  splits, serial backend; medians of 8 rotated rounds):\n"
        "  `cpu_s ÷ job_s` stayed 0.98-1.01 in every live\n"
        "  cell, i.e. one core's worth of CPU — the GIL time-slices the two\n"
        "  threads instead of overlapping them, even with zlib spills.  Live\n"
        "  lost to inline in all 6 cells and spill-matcher did not beat static\n"
        "  0.8 on live (2-6 of 8 rounds, against a 9-of-10 bar):\n\n"
        "  | app / codec | job_s inline 0.8 | live 0.8 | live 0.5 | live SM | "
        "spills 0.8/0.5/SM | ΣT_p/ΣT_c s (live 0.8) | SM x | SM < live 0.8 |\n"
        "  |---|---|---|---|---|---|---|---|---|\n"
        "  | wordcount / identity | 1.24 | 1.29 | 1.29 | 1.33 | 64/96/67 | 0.90/0.47 | 0.50-0.91 | 2/8 |\n"
        "  | wordcount / zlib | 1.09 | 1.19 | 1.28 | 1.30 | 64/96/81 | 0.66/0.76 | 0.50-0.82 | 2/8 |\n"
        "  | invertedindex / identity | 1.84 | 1.88 | 1.89 | 1.93 | 72/112/89 | 1.25/1.07 | 0.50-0.85 | 2/8 |\n"
        "  | invertedindex / zlib | 1.76 | 1.85 | 1.93 | 1.90 | 72/112/96 | 0.85/1.14 | 0.50-0.81 | 2/8 |\n"
        "  | wordpostag / identity | 2.92 | 3.31 | 3.50 | 3.27 | 38/56/48 | 2.09/1.85 | 0.50-0.81 | 6/8 |\n"
        "  | wordpostag / zlib | 3.00 | 3.42 | 3.42 | 3.54 | 38/56/48 | 2.13/2.04 | 0.50-0.85 | 3/8 |\n\n"
        "  With nothing to match, the live half was deleted; the modelled\n"
        "  two-thread pipeline (`engine/pipeline.py`) is spill-matcher's one\n"
        "  home and every Table II / Fig. 9 / Table III number below comes\n"
        "  from it.\n\n"
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
