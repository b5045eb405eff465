"""Paper-vs-measured comparison records, plus run-level traffic reports.

Every experiment emits :class:`Claim` rows — a named quantity from the
paper, the measured value, and a qualitative *shape* check (direction /
rough magnitude, never absolute seconds).  EXPERIMENTS.md is assembled
from these.

:func:`shuffle_traffic` / :func:`render_shuffle_traffic` summarize a
job's *network* shuffle per host — bytes served by each node's shuffle
server next to bytes fetched by its reducers, with retry and backoff
totals — the shuffle-side sibling of the DFS ``DataNode``
``bytes_served`` / ``bytes_received`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..engine.runner import JobResult
    from ..lint import LintReport


@dataclass(frozen=True)
class Claim:
    """One comparable quantity of one experiment."""

    experiment: str
    name: str
    paper_value: str
    measured_value: str
    holds: bool
    note: str = ""

    def row(self) -> list[str]:
        return [
            self.name,
            self.paper_value,
            self.measured_value,
            "yes" if self.holds else "NO",
            self.note,
        ]


def check(
    experiment: str,
    name: str,
    paper_value: str,
    measured: float,
    predicate: Callable[[float], bool],
    fmt: str = "{:.1f}",
    note: str = "",
) -> Claim:
    """Build a claim from a measured float and a shape predicate."""
    return Claim(
        experiment=experiment,
        name=name,
        paper_value=paper_value,
        measured_value=fmt.format(measured),
        holds=bool(predicate(measured)),
        note=note,
    )


def render_claims(claims: list[Claim]) -> str:
    from .tables import render_table

    if not claims:
        return "(no claims)"
    return render_table(
        f"paper-vs-measured: {claims[0].experiment}",
        ["quantity", "paper", "measured", "shape holds", "note"],
        [c.row() for c in claims],
    )


@dataclass(frozen=True)
class HostShuffleTraffic:
    """One host's shuffle traffic: the serving side (its shuffle server)
    and the fetching side (the reduce tasks that ran on it)."""

    host: str
    bytes_served: int
    requests_served: int
    faults_injected: int
    bytes_fetched: int
    fetches: int
    retries: int
    backoff_ms: int

    def row(self) -> list[str]:
        return [
            self.host,
            str(self.bytes_served),
            str(self.requests_served),
            str(self.faults_injected),
            str(self.bytes_fetched),
            str(self.fetches),
            str(self.retries),
            str(self.backoff_ms),
        ]


def shuffle_traffic(result: "JobResult") -> list[HostShuffleTraffic]:
    """Per-host network-shuffle traffic for one finished job.

    Serving-side numbers come from the per-node shuffle servers'
    :class:`~repro.shuffle.server.ShuffleHostStats`; fetching-side
    numbers aggregate the reduce tasks by the host they ran on.  Empty
    in ``mem`` mode (no servers ran).
    """
    from ..engine.counters import Counter

    served: dict[str, tuple[int, int, int]] = {}
    for stats in result.shuffle_hosts:
        prev = served.get(stats.host, (0, 0, 0))
        served[stats.host] = (
            prev[0] + stats.bytes_served,
            prev[1] + stats.requests_served,
            prev[2] + stats.total_faults,
        )

    fetched: dict[str, list[int]] = {}
    for reduce_result in result.reduce_results:
        host = reduce_result.host or "?"
        agg = fetched.setdefault(host, [0, 0, 0, 0])
        agg[0] += reduce_result.shuffle_bytes
        agg[1] += reduce_result.counters.get(Counter.SHUFFLE_FETCHES)
        agg[2] += reduce_result.fetch_retries
        agg[3] += reduce_result.counters.get(Counter.SHUFFLE_BACKOFF_MS)

    if not served:
        return []
    rows = []
    for host in sorted(set(served) | set(fetched)):
        srv = served.get(host, (0, 0, 0))
        fch = fetched.get(host, [0, 0, 0, 0])
        rows.append(
            HostShuffleTraffic(
                host=host,
                bytes_served=srv[0],
                requests_served=srv[1],
                faults_injected=srv[2],
                bytes_fetched=fch[0],
                fetches=fch[1],
                retries=fch[2],
                backoff_ms=fch[3],
            )
        )
    return rows


def render_shuffle_traffic(result: "JobResult") -> str:
    """The per-host shuffle-traffic table, or a placeholder in mem mode."""
    from .tables import render_table

    rows = shuffle_traffic(result)
    if not rows:
        return "(no network shuffle traffic: repro.shuffle.mode = mem)"
    return render_table(
        f"network shuffle traffic: {result.job_name}",
        ["host", "served B", "reqs", "faults", "fetched B", "fetches", "retries", "backoff ms"],
        [r.row() for r in rows],
    )


def job_stamp(result: "JobResult") -> str:
    """One-line provenance for a finished job: the deterministic job id
    plus the output content digest (truncated) — enough to recognize a
    rerun of the same job producing the same bytes."""
    job_id = result.job_id or "?"
    return f"job {job_id}  output sha256:{result.output_digest()[:12]}"


def render_failure_report(result: "JobResult") -> str:
    """The fault-tolerance section of a finished job's report.

    Summarizes what the run survived: worker crashes, hung-task
    timeouts, quarantined tasks, re-executed task attempts (with the
    per-task attempt counts for every task that needed more than one),
    and DFS replica failovers.  Collapses to a single quiet line when
    the run needed no recovery at all — the common case.
    """
    from ..engine.counters import Counter
    from .tables import render_table

    counters = result.counters
    crashes = counters.get(Counter.WORKER_CRASHES)
    timeouts = counters.get(Counter.TASK_TIMEOUTS)
    quarantined = counters.get(Counter.TASKS_QUARANTINED)
    reexecutions = counters.get(Counter.TASK_REEXECUTIONS)
    failovers = counters.get(Counter.DFS_READ_FAILOVERS)
    if not any((crashes, timeouts, quarantined, reexecutions, failovers)):
        return f"failures: none (every task of {result.job_name} succeeded first try)"

    lines = [
        f"failures survived by {result.job_name}: "
        f"{crashes} worker crash(es), {timeouts} task timeout(s), "
        f"{quarantined} task(s) quarantined, {reexecutions} task "
        f"re-execution(s), {failovers} DFS read failover(s)"
    ]
    retried = sorted(
        (task_id, attempts)
        for task_id, attempts in result.task_attempts.items()
        if attempts > 1
    )
    if retried:
        lines.append(
            render_table(
                "tasks that needed retries",
                ["task", "attempts"],
                [[task_id, str(attempts)] for task_id, attempts in retried],
            )
        )
    return "\n".join(lines)


def render_lint_report(report: "LintReport") -> str:
    """The static analyzer's findings as a text report.

    Shows the findings table (rule, severity, ``file:line`` anchor,
    message), the combiner fold-like verdict, every gating decision the
    runner applied (the paper-facing part: *why* freqbuf ran or did not
    run for this job), and any analyzer notes.
    """
    from .tables import render_table

    lines: list[str] = []
    if report.findings:
        lines.append(
            render_table(
                f"lint findings: {report.subject}",
                ["rule", "severity", "where", "message"],
                [f.row() for f in report.findings],
            )
        )
    else:
        lines.append(f"lint: {report.subject}: no findings")
    if report.fold_like is not None:
        lines.append(f"combiner fold-like: {report.fold_like}")
    for decision in report.gating:
        lines.append(f"gating: {decision.describe()}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
