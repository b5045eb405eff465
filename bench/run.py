"""The repo's benchmark: whole-job time, data volume and per-layer seconds.

    python bench/run.py --seed 0                 every workload, untraced + traced
    python bench/run.py --workload sort-net --seed 3 --seconds 15 --trace 0
    python bench/run.py --check --scale-factor 0.02 --reps 1 --seconds 0

Every measurement happens in a fresh child interpreter (``measure.py``);
this process only spawns children one at a time, folds their samples
into medians, prints every metric by name with its unit and writes
``bench/out/result.json`` and ``bench/out/trace-<workload>.json``.  With
one ``--workload`` and a ``--trace`` value the last line of standard
output is the driver's JSON object (see BENCHMARK.json, README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"

#: Untraced children per workload (fewer only if --reps is): ``setup_s``
#: and ``peak_rss_mb`` are medians over them, and the timed repetitions
#: are split between them.
SETUPS = 3
#: (untraced, traced) pairs of runs in the traced child; the pair with
#: the median ``trace.overhead_share`` gives the per-layer numbers.
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 150
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end only, 1 per-layer only (default: both)")
    parser.add_argument("--reps", type=int, default=5,
                        help="least timed repetitions per workload")
    parser.add_argument("--scale-factor", type=float, default=None,
                        help="multiplies every dataset size (default: workloads.SCALE_FACTOR)")
    parser.add_argument("--check", action="store_true",
                        help="also check the emitted names against BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for result.json and trace-<workload>.json")
    parser.add_argument("--child", choices=("timed", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"bench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import SCALE_FACTOR

    if args.scale_factor is None:
        args.scale_factor = SCALE_FACTOR
    if args.child:
        from measure import run_child

        report = run_child(
            args.workload, args.seed, args.scale_factor, args.seconds, args.reps,
            traced=args.child == "traced",
        )
        print(json.dumps(report))
        return 0

    declared = json.loads(DECLARATION.read_text())
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; have {names}")
        names = [args.workload]

    args.out.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    workloads = {}
    for workload in declared["workloads"]:
        if workload["name"] in names:
            workloads[workload["name"]] = {
                "why": workload["why"],
                **run_workload(workload["name"], args, declared),
            }
    env["loadavg_end"] = os.getloadavg()

    problems = cross_checks(workloads)
    if args.check:
        problems += check_declaration(declared, workloads, args)
    result = {
        "schema": 1,
        # This benchmark claims no gain: it is the baseline later PRs
        # are compared against (compare.py).
        "claim": None,
        "env": env,
        "workloads": workloads,
        "problems": problems,
    }
    (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print_report(result)

    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    correct = failed == 0 and not problems
    if len(names) == 1 and args.trace is not None:
        section = "per_layer" if args.trace else "end_to_end"
        metrics = {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in workloads[names[0]][section].items()
        }
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# children


def spawn(mode: str, name: str, args, seconds: float, reps: int) -> dict:
    """Run one child to completion and return its report.  The child
    leads its own process group, so a timeout also stops the daemons the
    cluster workload forks."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child", mode,
        "--workload", name, "--seed", str(args.seed),
        "--scale-factor", repr(args.scale_factor),
        "--seconds", repr(seconds), "--reps", str(reps),
    ]
    # Outputs never depend on the hash seed; pinning it takes one source
    # of run-to-run timing noise (dict and set layout) away.  The cluster
    # backend spills under tempfile's directory: keep that in the checkout.
    scratch = args.out / "tmp"
    scratch.mkdir(exist_ok=True)
    child_env = {**os.environ, "PYTHONHASHSEED": "0", "TMPDIR": str(scratch.resolve())}
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env,
        cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"bench: {name} ({mode}) did not finish in {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(f"bench: {name} ({mode}) exited with {child.returncode}")
    return json.loads(stdout.splitlines()[-1])


def run_workload(name: str, args, declared: dict) -> dict:
    """All children of one workload, folded into its metrics."""
    reports = []
    out: dict = {}
    if args.trace != 1:
        children = min(SETUPS, args.reps)
        timed = [
            spawn("timed", name, args, args.seconds / children, -(-args.reps // children))
            for _ in range(children)
        ]
        reports += timed
        out["end_to_end"] = end_to_end(timed, declared)
    if args.trace != 0:
        traced = spawn("traced", name, args, 0.0, TRACE_PAIRS)
        reports.append(traced)
        values = traced.get("per_layer", {})
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        order = list(units)
        # Declared order, undeclared names last; --check reports the difference.
        out["per_layer"] = {
            metric: {"value": values[metric], "unit": units.get(metric, "?")}
            for metric in sorted(values, key=lambda m: order.index(m) if m in units else len(order))
        }
        (args.out / f"trace-{name}.json").write_text(json.dumps({
            "workload": name, "seed": args.seed, "scale_factor": args.scale_factor,
            "spans": traced.get("spans", []),
        }, indent=1) + "\n")
    digests = {r.get("digest") for r in reports}
    failures = [f for r in reports for f in r["failures"]]
    failed = sum(r["failed"] for r in reports)
    if len(digests) > 1:
        # Every child built the same input from the same seed.
        failures.append(f"children disagree on the output digest: {sorted(map(str, digests))}")
        failed += 1
    return {
        "sizes": reports[0].get("sizes"),
        "digest": reports[0].get("digest"),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "failures": failures,
        **out,
    }


def end_to_end(children: list[dict], declared: dict) -> dict:
    """Fold the children's samples into one value per end-to-end metric.

    A job's timings are reported as the best repetition of the run (least
    seconds, most records/s), not the median: on a shared box a co-tenant
    only ever adds time, in phases that outlast a repetition, so the
    median of a run moves with the share of disturbed repetitions while
    the best one stays the undisturbed job (README.md has the measured
    spreads of both).  Median, quartiles and every sample are kept
    beside the value."""
    if not all(child.get("job_s") for child in children):
        return {}  # a warm-up or repetition raised; the failure is counted
    job_s = [t for child in children for t in child["job_s"]]
    records = children[0]["sizes"]["input_records"]
    samples = {
        "job_s": (job_s, min),
        "records_per_s": ([records / t for t in job_s], max),
        "cpu_s": ([t for child in children for t in child["cpu_s"]], min),
        "peak_rss_mb": ([child["peak_rss_mb"] for child in children], statistics.median),
        "shuffle_bytes": ([child["shuffle_bytes"] for child in children], statistics.median),
        "setup_s": ([child["setup_s"] for child in children], statistics.median),
    }
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    out = {}
    for name, (values, statistic) in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "value": statistic(values), "unit": units.get(name, "?"),
            "statistic": statistic.__name__, "n": len(values),
            "q1": q1, "median": median, "q3": q3, "samples": values,
        }
    return out


# ----------------------------------------------------------------------
# checks


def cross_checks(workloads: dict) -> list[str]:
    """The wc-* workloads count the same corpus: one digest per seed."""
    digests = {
        name: w["digest"] for name, w in workloads.items() if name.startswith("wc-")
    }
    if len(set(digests.values())) > 1:
        return [f"wc-* workloads disagree on the output digest: {digests}"]
    return []


def check_declaration(declared: dict, workloads: dict, args) -> list[str]:
    """--check: the names this run emitted are the names BENCHMARK.json
    declares, each well-formed and with unit, direction and (end-to-end)
    bound."""
    problems = []
    sections = {
        "end_to_end": {"name", "unit", "better", "bound"},
        "per_layer": {"name", "unit", "better"},
    }
    if args.trace is not None:  # only one of the two was measured
        del sections["end_to_end" if args.trace else "per_layer"]
    for section, keys in sections.items():
        for metric in declared[section]:
            if set(metric) != keys or metric.get("better") not in ("lower", "higher"):
                problems.append(f"{section} declaration {metric} needs exactly {sorted(keys)}")
            if not NAME.fullmatch(str(metric.get("name"))):
                problems.append(f"{section} name {metric.get('name')!r} is malformed")
        want = {m.get("name") for m in declared[section]}
        for name, workload in workloads.items():
            got = set(workload.get(section, {}))
            if got != want:
                problems.append(
                    f"{name} {section}: emitted but not declared {sorted(got - want)}, "
                    f"declared but not emitted {sorted(want - got)}"
                )
    return problems


# ----------------------------------------------------------------------
# reporting


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "scale_factor": args.scale_factor,
        "seconds": args.seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "loadavg_start": os.getloadavg(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (the driver's checkout has none)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def print_report(result: dict) -> None:
    env = result["env"]
    print(f"# seed {env['seed']}  scale-factor {env['scale_factor']}  "
          f"nproc {env['nproc']}  python {env['python']}  commit {env['commit']}")
    print(f"# loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    for name, workload in result["workloads"].items():
        print(f"\n## {name}: {workload['sizes']}")
        print(f"   job runs attempted {workload['attempted']}, failed {workload['failed']}")
        for failure in workload["failures"]:
            print(f"   FAILED {failure}")
        for metric, m in workload.get("end_to_end", {}).items():
            print(f"   {metric:34} {m['value']:>16.6g} {m['unit']:6} {m['statistic']} of "
                  f"n={m['n']}: q1={m['q1']:.6g} median={m['median']:.6g} q3={m['q3']:.6g}")
        for metric, m in workload.get("per_layer", {}).items():
            print(f"   {metric:34} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")


if __name__ == "__main__":
    sys.exit(main())
