"""Command-line interface.

Usage::

    python -m repro.cli run wordcount --config combined --scale 0.1
    python -m repro.cli run wordcount --backend cluster --workers 4
    python -m repro.cli run wordcount --backend cluster --shuffle net --shuffle-fetchers 8
    python -m repro.cli cluster invertedindex --cluster local --config freq --gantt
    python -m repro.cli experiment table3
    python -m repro.cli lint wordcount
    python -m repro.cli lint all --json
    python -m repro.cli list

``run`` executes an application on the single-node engine and prints
output stats plus the work breakdown; ``cluster`` runs an app on a
simulated cluster with optional Gantt chart; ``experiment`` regenerates
one of the paper's tables/figures; ``lint`` statically analyzes an
application's user code against the job-safety rule catalog (``all``
sweeps every registered app plus the engine's own thread-contract
self-lint); ``list`` names every registered application and experiment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .analysis.breakdown import OP_ORDER, breakdown_from_ledger
from .analysis.gantt import export_trace, render_gantt
from .analysis.report import (
    job_stamp,
    render_claims,
    render_failure_report,
    render_lint_report,
    render_shuffle_traffic,
)
from .apps.registry import (
    APP_NAMES,
    EXTRA_APP_NAMES,
    EXTRA_REGISTRY,
    FIXTURE_REGISTRY,
    REGISTRY,
    build_application,
)
from .cluster.jobtracker import ClusterJobRunner
from .cluster.specs import PRESET_CLUSTERS
from .config import Keys
from .engine.runner import LocalJobRunner
from .exec import backend_names
from .experiments import runall
from .experiments.common import OPTIMIZATION_CONFIGS, build_app
from .io.compression import codec_names
from .shutdown import graceful_termination


def _add_common_app_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", choices=APP_NAMES + EXTRA_APP_NAMES)
    parser.add_argument("--config", choices=OPTIMIZATION_CONFIGS, default="baseline")
    parser.add_argument("--scale", type=float, default=0.05, help="dataset scale knob")
    parser.add_argument("--splits", type=int, default=4, help="number of map tasks")
    parser.add_argument("--reducers", type=int, default=None)
    parser.add_argument(
        "--compression", choices=codec_names(), default="identity",
        help="spill/shuffle segment codec",
    )


def _build(args: argparse.Namespace, extra: dict | None = None):
    conf = {Keys.SPILL_COMPRESSION: args.compression}
    if args.reducers:
        conf[Keys.NUM_REDUCERS] = args.reducers
    if extra:
        conf.update(extra)
    return build_app(
        args.app, args.config, scale=args.scale,
        extra_conf=conf, num_splits=args.splits,
    )


def cmd_run(args: argparse.Namespace) -> int:
    extra = {
        Keys.EXEC_BACKEND: args.backend,
        Keys.EXEC_WORKERS: args.workers,
        Keys.SHUFFLE_MODE: args.shuffle,
        Keys.LINT_MODE: args.lint,
    }
    optional = {
        Keys.SHUFFLE_FETCHERS: args.shuffle_fetchers,
        Keys.FAULTS_SEED: args.fault_seed,
        Keys.TASK_TIMEOUT: args.task_timeout,
        Keys.CLUSTER_HEARTBEAT_INTERVAL: args.heartbeat_interval,
    }
    extra.update({key: value for key, value in optional.items() if value is not None})
    if args.fault:
        extra[Keys.FAULTS_SPEC] = ";".join(args.fault)
    if args.node_combine:
        extra[Keys.NODE_COMBINE] = True
    app = _build(args, extra=extra)
    start = time.perf_counter()
    runner = LocalJobRunner()
    result = runner.run(app.job)
    elapsed = time.perf_counter() - start
    if args.json:
        print(json.dumps({
            "app": app.name,
            "config": args.config,
            "backend": args.backend,
            "job_id": result.job_id,
            "output_digest": result.output_digest(),
            "records": result.output_records,
            "seconds": elapsed,
            "stamp": job_stamp(result),
            "task_attempts": sum(runner.task_attempts.values()),
            "counters": result.counters.as_dict(),
        }, indent=2))
        return 0
    workers = f", workers={args.workers or 'auto'}" if args.backend != "serial" else ""
    shuffle = f", shuffle={args.shuffle}" if args.shuffle != "mem" else ""
    print(f"{app.job.describe()}: {result.output_records} output records "
          f"in {elapsed:.3f}s (backend={args.backend}{workers}{shuffle})")
    print(job_stamp(result))
    if args.fault:
        print(render_failure_report(result))
    if args.shuffle == "net":
        print(render_shuffle_traffic(result))
    if result.lint_report is not None:
        print(render_lint_report(result.lint_report))
    breakdown = breakdown_from_ledger(app.name, result.ledger)
    print(f"total work: {breakdown.total_work:.0f} units "
          f"(user {breakdown.user_share:.1%}, framework {breakdown.framework_share:.1%})")
    for op in OP_ORDER:
        share = breakdown.share(op)
        if share > 0:
            print(f"  {op.value:10s} {share:7.2%}  {'#' * int(share * 60)}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    cluster = PRESET_CLUSTERS[args.cluster]()
    app = _build(args, extra={Keys.NUM_REDUCERS: args.reducers or cluster.total_reduce_slots})
    result = ClusterJobRunner(cluster).run(app)
    print(render_gantt(result) if args.gantt else
          f"{app.job.describe()} on {cluster.name}: {result.runtime_seconds:.3f}s "
          f"(map {result.map_phase_seconds:.3f}s, locality {result.data_local_fraction:.0%})")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(export_trace(result), fh, indent=2)
        print(f"trace written to {args.trace}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    modules = {exp_id: module for exp_id, _, module in runall.EXPERIMENTS}
    module = modules.get(args.name)
    if module is None:
        print(f"unknown experiment {args.name!r}; have {sorted(modules)}", file=sys.stderr)
        return 2
    result = module.run()
    print(result.render())
    print()
    print(render_claims(result.claims))
    return 0 if all(c.holds for c in result.claims) else 1


def _lint_app(name: str, scale: float) -> list:
    """Lint one registered app (fixtures are resolvable here, and only
    here: the lint CLI exists to analyze them, never to run them)."""
    from .lint import analyze_app

    app = build_application(name, scale=scale, include_fixtures=True)
    return [analyze_app(app)]


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import analyze_engine

    reports = []
    if args.app == "engine":
        reports.append(analyze_engine())
    elif args.app == "all":
        for name in list(REGISTRY) + list(EXTRA_REGISTRY):
            reports.extend(_lint_app(name, args.scale))
        reports.append(analyze_engine())
    else:
        reports.extend(_lint_app(args.app, args.scale))

    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(render_lint_report(report))
    return 1 if any(r.has_errors for r in reports) else 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("applications (the paper's suite):")
    for name, entry in REGISTRY.items():
        kind = "text-centric" if entry.text_centric else "relational "
        print(f"  {name:15s} [{kind}] {entry.description}")
    print()
    print("extra applications:")
    for name, entry in EXTRA_REGISTRY.items():
        print(f"  {name:15s} {entry.description}")
    print()
    print("execution backends (`repro run <app> --backend <name>`):")
    backend_blurbs = {
        "serial": "in-order, in-thread reference backend: one node",
        "cluster": "a master over forked worker daemons, one node each: "
                   "crash recovery, heartbeats, locality, speculation",
    }
    for name in backend_names():
        print(f"  {name:15s} {backend_blurbs.get(name, '')}")
    print()
    print("experiments:")
    for exp_id, title, _ in runall.EXPERIMENTS:
        print(f"  {exp_id:8s} {title}")
    print()
    print("lint fixtures (`repro lint <name>` only; not runnable):")
    for name, fixture_entry in FIXTURE_REGISTRY.items():
        print(f"  {name:15s} {fixture_entry.description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an app on the single-node engine")
    _add_common_app_args(run_parser)
    run_parser.add_argument(
        "--backend", choices=backend_names(), default="serial",
        help="execution backend for the job",
    )
    run_parser.add_argument(
        "--workers", type=int, default=0,
        help="the cluster backend's worker daemons, one node each "
             "(0 = one per CPU; serial ignores it)",
    )
    run_parser.add_argument(
        "--shuffle", choices=("mem", "net"), default="mem",
        help="shuffle transport for the job: direct in-process reads "
             "with modelled network charges (mem) or real per-node TCP "
             "shuffle servers with measured charges (net)",
    )
    run_parser.add_argument(
        "--shuffle-fetchers", type=int, default=None,
        help="parallel fetcher threads per reduce task (net shuffle only)",
    )
    run_parser.add_argument(
        "--lint", choices=("off", "warn", "strict"), default="off",
        help="static job-safety analysis at the submit of the job: warn "
             "analyzes and gates unproven optimizations, strict refuses "
             "unsafe jobs",
    )
    run_parser.add_argument(
        "--heartbeat-interval", type=float, default=None,
        help="seconds between worker pings to the cluster master "
             "(missed pings mark workers suspect, then dead)",
    )
    run_parser.add_argument(
        "--fault", action="append", default=[], metavar="SITE.KIND:FRACTION[:ATTEMPTS]",
        help="inject a deterministic fault (repeatable); sites: disk "
             "(corrupt, torn), dfs (corrupt), worker (kill, hang, stall), "
             "shuffle (refuse, drop, truncate, delay), master "
             "(heartbeat_drop; cluster backend) — e.g. "
             "--fault worker.kill:0.5 --fault disk.corrupt:0.3",
    )
    run_parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for deterministic fault-victim selection",
    )
    run_parser.add_argument(
        "--task-timeout", type=float, default=None,
        help="seconds before a hung task's worker is killed and the "
             "attempt rescheduled (cluster backend; 0 = never)",
    )
    run_parser.add_argument(
        "--node-combine", action="store_true",
        help="fold each node's finished map outputs with the job combiner "
             "before reducers fetch (gated on a fold-verified combiner "
             "when --lint is warn/strict)",
    )
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable job record (stamp, digest, counters)",
    )
    run_parser.set_defaults(fn=cmd_run)

    cluster_parser = sub.add_parser("cluster", help="run an app on a simulated cluster")
    _add_common_app_args(cluster_parser)
    cluster_parser.add_argument("--cluster", choices=sorted(PRESET_CLUSTERS), default="local")
    cluster_parser.add_argument("--gantt", action="store_true", help="render task Gantt chart")
    cluster_parser.add_argument("--trace", default=None, help="write JSON trace to this path")
    cluster_parser.set_defaults(fn=cmd_cluster)

    exp_parser = sub.add_parser("experiment", help="regenerate one paper table/figure")
    exp_parser.add_argument("name")
    exp_parser.set_defaults(fn=cmd_experiment)

    lint_parser = sub.add_parser(
        "lint", help="statically analyze an app's user code for job safety"
    )
    lint_parser.add_argument(
        "app",
        choices=tuple(dict.fromkeys(
            APP_NAMES + EXTRA_APP_NAMES + tuple(FIXTURE_REGISTRY) + ("all", "engine")
        )),
        help="an application, 'all' (every registered app + engine "
             "self-lint), or 'engine' (thread-contract self-lint only)",
    )
    lint_parser.add_argument("--scale", type=float, default=0.01,
                             help="dataset scale used to materialize the job")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit machine-readable reports")
    lint_parser.set_defaults(fn=cmd_lint)

    list_parser = sub.add_parser("list", help="list applications and experiments")
    list_parser.set_defaults(fn=cmd_list)

    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: the try/finally teardown in whatever
    # command is running (cluster masters, shuffle servers, thread pools)
    # gets to release its ports and reap its children.
    with graceful_termination():
        try:
            code = args.fn(args)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader went away (`repro list | head`).  Point stdout at
            # devnull so the interpreter's final flush cannot raise again,
            # and exit non-zero without a traceback (the recipe of the
            # Python `signal` docs' note on SIGPIPE).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 1
        return code


if __name__ == "__main__":
    sys.exit(main())
