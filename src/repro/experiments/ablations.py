"""Ablations — the design decisions behind the reproduced results.

Not paper figures: five checks that the substrate's choices are not
what makes the shapes come out.

* **Cost model.**  Every reproduced result rests on the work-unit cost
  model (DESIGN.md §5).  Each constant family is perturbed by ±50 % and
  WordCount Combined vs Baseline (whole-job modelled time) re-measured:
  the headline direction must survive every perturbation.
* **Frequency-buffering parameters.**  WordCount framework work over
  the frequent-set size k, the sampling fraction s and per-node
  sharing: more coverage (bigger k) removes more work, an oversized s
  forfeits the optimization window, and sharing the frequent set
  beats re-profiling in every task.  Predictors are Figure 7's.
* **Spill/shuffle compression** (§VII).  On InvertedIndex, the most
  storage-intensive app, zlib cuts spilled and shuffled bytes at a
  smaller premium in total work (which charges the codec's CPU).
* **Speculative execution.**  With one 4x-slow node in the 6-node
  cluster, backup attempts claw back most of the stragglers' map
  phase, and are a strict no-op on the homogeneous cluster.
* **Spill policy** (§IV).  A static spill-percentage sweep against the
  adaptive spill-matcher on WordCount: the controller matches the best
  static point without knowing it, beats Hadoop's 0.8, and removes
  most of the slower thread's wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.idle import aggregate_idle
from ..analysis.report import Claim, check
from ..analysis.tables import render_table
from ..cluster.jobtracker import ClusterJobRunner
from ..cluster.speculation import SpeculationPolicy, heterogeneous_cluster
from ..cluster.specs import local_cluster
from ..config import Keys
from ..engine.costmodel import DEFAULT_COST_MODEL
from ..engine.counters import Counter
from .common import build_app, build_engine_app, run_engine_job

EXPERIMENT = "ablation"

#: The ablations run at their own sizes in both modes.
FAST: dict = {}

PERTURB_FIELDS = (
    "sort_comparison",
    "serialize_byte",
    "spill_write_byte",
    "net_byte",
    "hash_record",
    "merge_comparison",
)
CODECS = ("identity", "zlib", "rle+zlib")
STATIC_SWEEP = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)


@dataclass
class AblationResult:
    tables: list[str]
    claims: list[Claim]

    def render(self) -> str:
        return "\n\n".join(self.tables)


def _ratio(name: str, expected: str, value: float, predicate) -> Claim:
    return check(EXPERIMENT, name, expected, value, predicate, "{:.3f}")


def _job_time(result) -> float:
    """Whole-job modelled time: every map task's pipelined window and
    serial merge tail, plus every reduce task.  The pipeline window
    alone leaves out the merge and shuffle/reduce work that a spill
    policy or a cost constant can move."""
    return sum(r.duration_work for r in result.map_results) + sum(
        r.duration_work for r in result.reduce_results
    )


def _costmodel() -> tuple[str, list[Claim]]:
    def elapsed_under(model) -> dict[str, float]:
        out = {}
        for config in ("baseline", "combined"):
            app = build_engine_app("wordcount", config, scale=0.05)
            app.job.cost_model = model
            out[config] = _job_time(run_engine_job(app))
        return out

    models = [
        (f"{field} x{factor}",
         DEFAULT_COST_MODEL.with_overrides(
             **{field: getattr(DEFAULT_COST_MODEL, field) * factor}))
        for field in PERTURB_FIELDS
        for factor in (0.5, 1.5)
    ]
    models.append(("(default)", DEFAULT_COST_MODEL))
    rows = []
    for name, model in models:
        times = elapsed_under(model)
        rows.append([name, times["baseline"],
                     100.0 * (1.0 - times["combined"] / times["baseline"])])
    worst = min(rows, key=lambda r: r[2])
    table = render_table(
        "Ablation: cost-model perturbations (WordCount, combined vs baseline)",
        ["perturbation", "baseline job time", "combined saving %"],
        rows, "{:.4g}",
    )
    return table, [
        check(
            EXPERIMENT, "cost model: combined wins under every ±50% constant",
            "min combined saving > 0", worst[2], lambda v: v > 0.0,
            "{:.1f}%",
            note=f"min at {worst[0]}; net_byte: no network on one host",
        ),
    ]


def _freqbuf() -> tuple[str, list[Claim]]:
    def framework_work(config: str, extra: dict) -> float:
        app = build_engine_app(
            "wordcount", config, scale=0.05, extra_conf=extra, num_splits=4
        )
        return run_engine_job(app).ledger.framework_work()

    base = framework_work("baseline", {})
    k = {v: framework_work("freq", {Keys.FREQBUF_K: v}) for v in (4, 16, 64, 256)}
    s = {v: framework_work("freq", {Keys.FREQBUF_SAMPLE_FRACTION: v})
         for v in (0.1, 0.3, 0.9)}
    sharing = {on: framework_work("freq", {Keys.FREQBUF_SHARE_ACROSS_TASKS: on})
               for on in (True, False)}

    rows = [["baseline (no freqbuf)", base, 0.0]]
    for label, sweep in (("k", k), ("s", s), ("share_across_tasks", sharing)):
        for value, work in sweep.items():
            rows.append([f"{label}={value}", work, 100 * (1 - work / base)])
    table = render_table(
        "Ablation: frequency-buffering parameters (WordCount framework work)",
        ["setting", "framework work", "reduction %"],
        rows, "{:.4g}",
    )
    return table, [
        _ratio("freqbuf: k=64 / k=4 work", "< 1 (more of the Zipf head)",
               k[64] / k[4], lambda v: v < 1.0),
        _ratio("freqbuf: s=0.9 / s=0.1 work", "> 1 (window forfeited)",
               s[0.9] / s[0.1], lambda v: v > 1.0),
        _ratio("freqbuf: shared / per-task work", "<= 1.01",
               sharing[True] / sharing[False], lambda v: v <= 1.01),
        _ratio("freqbuf: best k / baseline work", "< 1",
               min(k.values()) / base, lambda v: v < 1.0),
    ]


def _compression() -> tuple[str, list[Claim]]:
    def measure(codec: str) -> dict[str, float]:
        app = build_engine_app(
            "invertedindex", "baseline", scale=0.05,
            extra_conf={Keys.SPILL_COMPRESSION: codec},
        )
        result = run_engine_job(app)
        return {
            "spilled_bytes": result.counters.get(Counter.SPILLED_BYTES),
            "shuffle_bytes": result.counters.get(Counter.SHUFFLE_BYTES),
            "total_work": result.ledger.total(),
        }

    data = {codec: measure(codec) for codec in CODECS}
    table = render_table(
        "Ablation: spill/shuffle compression (InvertedIndex)",
        ["codec", "spilled bytes", "shuffle bytes", "total work"],
        [[codec, m["spilled_bytes"], m["shuffle_bytes"], m["total_work"]]
         for codec, m in data.items()],
        "{:.5g}",
    )
    raw, zlib_ = data["identity"], data["zlib"]
    return table, [
        _ratio("compression: zlib / identity spilled bytes", "< 0.8",
               zlib_["spilled_bytes"] / raw["spilled_bytes"], lambda v: v < 0.8),
        _ratio("compression: zlib / identity shuffle bytes", "< 0.9",
               zlib_["shuffle_bytes"] / raw["shuffle_bytes"], lambda v: v < 0.9),
        _ratio("compression: zlib / identity total work", "< 1.3",
               zlib_["total_work"] / raw["total_work"], lambda v: v < 1.3),
    ]


def _speculation() -> tuple[str, list[Claim]]:
    def run_case(cluster, speculate: bool):
        app = build_app(
            "wordcount", "baseline", scale=0.08,
            extra_conf={Keys.NUM_REDUCERS: cluster.total_reduce_slots,
                        Keys.SPILL_BUFFER_BYTES: 16 * 1024},
            num_splits=12,
        )
        runner = ClusterJobRunner(
            cluster, speculation=SpeculationPolicy() if speculate else None
        )
        return runner.run(app), runner

    data = {}
    for name, cluster in (
        ("homogeneous", local_cluster()),
        ("1-slow-node", heterogeneous_cluster(slow_factor=4.0)),
    ):
        plain, _ = run_case(cluster, speculate=False)
        spec, runner = run_case(cluster, speculate=True)
        data[name] = {
            "plain": plain.map_phase_seconds,
            "speculative": spec.map_phase_seconds,
            "backups": runner.map_backups_launched,
            "won": runner.map_backups_won,
        }
    table = render_table(
        "Ablation: speculative execution (WordCount map phase, seconds)",
        ["cluster", "no speculation", "speculation", "backups", "won"],
        [[name, m["plain"], m["speculative"], m["backups"], m["won"]]
         for name, m in data.items()],
        "{:.4f}",
    )
    het, homo = data["1-slow-node"], data["homogeneous"]
    return table, [
        _ratio("speculation: 1-slow-node speculative / plain map phase", "< 0.9",
               het["speculative"] / het["plain"], lambda v: v < 0.9),
        check(EXPERIMENT, "speculation: 1-slow-node backups won", "> 0",
              het["won"], lambda v: v > 0, "{:.0f}"),
        _ratio("speculation: homogeneous speculative / plain map phase", "== 1",
               homo["speculative"] / homo["plain"], lambda v: v == 1.0),
        check(EXPERIMENT, "speculation: homogeneous backups won", "== 0",
              homo["won"], lambda v: v == 0, "{:.0f}"),
    ]


def _spillpolicy() -> tuple[str, list[Claim]]:
    def measure(config: str, static_percent: float | None = None) -> dict:
        extra = {}
        if static_percent is not None:
            extra[Keys.SPILL_PERCENT] = static_percent
        app = build_engine_app("wordcount", config, scale=0.06, extra_conf=extra)
        result = run_engine_job(app)
        # Judged on the whole job: the pipeline window alone would
        # reward degenerate micro-spills that dump their cost into merge
        # and shuffle — the trade-off §IV-A warns about.
        idle = aggregate_idle(result.pipeline_results())
        return {
            "elapsed": _job_time(result),
            "slower_wait": idle.slower_thread_block_wait,
        }

    statics = {x: measure("baseline", static_percent=x) for x in STATIC_SWEEP}
    adaptive = measure("spill")
    rows = [[f"static x={x}", m["elapsed"], m["slower_wait"]] for x, m in statics.items()]
    rows.append(["spill-matcher", adaptive["elapsed"], adaptive["slower_wait"]])
    table = render_table(
        "Ablation: static spill percentage sweep vs adaptive (WordCount)",
        ["policy", "pipeline elapsed", "slower-thread wait"],
        rows, "{:.3g}",
    )
    best_static = min(m["elapsed"] for m in statics.values())
    hadoop = statics[0.8]
    return table, [
        _ratio("spill policy: adaptive / best static elapsed", "<= 1.05",
               adaptive["elapsed"] / best_static, lambda v: v <= 1.05),
        _ratio("spill policy: adaptive / static 0.8 elapsed", "< 1",
               adaptive["elapsed"] / hadoop["elapsed"], lambda v: v < 1.0),
        _ratio("spill policy: adaptive / static 0.8 slower-thread wait", "<= 0.2",
               adaptive["slower_wait"] / hadoop["slower_wait"], lambda v: v <= 0.2),
    ]


def run() -> AblationResult:
    tables: list[str] = []
    claims: list[Claim] = []
    for ablation in (_costmodel, _freqbuf, _compression, _speculation, _spillpolicy):
        table, found = ablation()
        tables.append(table)
        claims.extend(found)
    return AblationResult(tables, claims)
