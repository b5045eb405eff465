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
    ablations,
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
    ("ablation", "Ablations — design decisions", ablations),
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
42 runs of LocalJobRunner().run(job) (two rounds of 3 fresh interpreters x 7,
one discarded warm-up each), parent and change alternating.  "modelled %"
repeats the table above (its own scale and cluster model) for comparison.
env: nproc 2 (shared), python 3.11.7, Linux-6.18.44-fc-v139-x86_64-with-glibc2.36,
     2026-10-19; parent = 76063d9 (a frequency-buffer hit runs
     value.serialized_size(), the Tallies updates and FoldTable.add, and a
     combine every 7th hit to a slot; partition memo per map task), change
     = a hit under a proven vint fold is one probe and one list append,
     folded in at settlements; partition memo per node.
-------------------------------------------------------------------------------
               config   modelled %   parent job_s   % of base   new job_s   % of base
-------------------------------------------------------------------------------
             baseline        100.0          0.400       100.0       0.355       100.0
              freqopt         92.0          0.425       106.3       0.359       101.1
             spillopt         81.7          0.390        97.5       0.357       100.6
             combined         79.3          0.415       103.8       0.374       105.4
combined+node-combine            -          0.453       113.3       0.408       114.9
-------------------------------------------------------------------------------
freqopt / baseline per round: parent 1.063 and 1.118, change 0.987 and 1.010.
bench/run.py --trace 0, alternating pairs (odd pairs parent first), median of
each run's best repetition (parent quartiles in brackets):
  wc-optimized  0.491 s [0.470-0.500] -> 0.422 s  (-14.0 %, 10/10 pairs)
  wc-baseline   0.418 s [0.397-0.448] -> 0.390 s  ( -6.5 %,  5/6 pairs)
  sort-net      0.381 s [0.378-0.392] -> 0.383 s  ( +0.3 %,  3/6 pairs)
  wc-cluster1   0.510 s [0.500-0.529] -> 0.498 s  ( -2.4 %,  5/6 pairs)
shuffle_bytes identical per seed on all four; peak_rss_mb +1.6 % on
wc-optimized and +1.9 % on wc-baseline (the node's partition memo outlives
each task), within 0.3 % on the other two.  Every count, ledger entry and
digest identical.
Untraced perf_counter brackets of the OPTIMIZE stage (its collect() calls
less the spills they cut, plus the drain; the brackets' own cost included on
both sides), wc-optimized seed 1, best of 9, three alternating pairs:
  0.179 / 0.167 / 0.166 s -> 0.108 / 0.108 / 0.111 s.
Coarse split, best of 9 (s): baseline -> freqopt, map tasks less their
spill cycles and final merge (read, map(), emit, the front stage)
  parent 0.219 -> 0.271, change 0.218 -> 0.207;
spill sort+combine+write 0.073 -> 0.050 (parent), 0.085 -> 0.052 (change).
```
"""


def run_all(fast: bool = False) -> tuple[str, list[Claim], int]:
    """Run everything; returns (markdown, all claims, #failed)."""
    sections: list[str] = []
    all_claims: list[Claim] = []
    for exp_id, title, module in EXPERIMENTS:
        start = time.perf_counter()
        result = module.run(**(module.FAST if fast else {}))
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
        "  constant; every claim is a ratio. The cost-model ablation (its\n"
        "  claim in the Ablations section below) checks that the headline\n"
        "  direction survives ±50% perturbations of each constant.\n"
        "* **Measured seconds trail the modelled saving: on the clock FreqOpt\n"
        "  is ~1.0x Baseline, not 0.92x.** The paper's Combined is 0.61x\n"
        "  Baseline.  Ours was 0.87-0.89 before the packed spill path took\n"
        "  40 % off Baseline and raised it to 0.92: a record the frequency\n"
        "  buffer absorbs (hit rate 0.41) skips a spill path that costs that\n"
        "  much less.  Merges at C speed, one stable sort per partition run\n"
        "  and one bulk fold loop at both map-side combine sites cut Baseline\n"
        "  further, until a hit (`value.serialized_size()`, the tallies,\n"
        "  `FoldTable.add` and a combine every seventh hit to a key) cost more\n"
        "  than the spill path it skipped: FreqOpt 1.06-1.12x Baseline,\n"
        "  best-of-21.  A hit under a proven vint fold is now one probe and\n"
        "  one list append, folded in at settlements, and FreqOpt is\n"
        "  0.99-1.01x Baseline.  The measured split (Table III measured,\n"
        "  below) shows where the rest goes.  FreqOpt cuts the per-spill\n"
        "  sort/combine/write by ~0.03 s of ~0.08 s and the map side outside\n"
        "  the spill path (read, map(), emit, the front stage) by ~0.01 s of\n"
        "  ~0.22 s.  The 30 % of the buffer the table takes leaves nearly as\n"
        "  many spills (56 against 64), so the final merge hardly moves, and\n"
        "  0.92x stays out of reach while both jobs share the ~0.2 s of\n"
        "  map-side Python.  Combined is slower than FreqOpt on the clock\n"
        "  (1.05x Baseline): spill-matcher cuts more, smaller spills (72\n"
        "  against 56), which no second thread repays (below).  The\n"
        "  *modelled* saving is unchanged (no ledger number moved); what the\n"
        "  clock shows is that its constants no longer price the spill path\n"
        "  this implementation runs — the refit of ROADMAP item 1(a).  The\n"
        "  paper's claim that framework work between map() and reduce()\n"
        "  dominates still holds: the traced Baseline run spends 0.53-0.58 s\n"
        "  in the collector seam of ~0.95-1.03 s of task time, user map() ~0.11.\n"
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
