"""Shared experiment infrastructure.

Defines the four optimization configurations of Section V (baseline /
frequency-buffering only / spill-matcher only / combined), the paper's
frequency-buffering parameters translated to our dataset scale, and
helpers to run an application under a configuration at engine level or
on a simulated cluster.

Parameter translation.  The paper uses ``k=3000, s=0.01`` for the text
apps (24.7M-word vocabulary) and ``k=10000, s=0.1`` for the log apps
(600k URLs).  What transfers across dataset scale is not ``k`` itself
but the *stream coverage* of the top-k — the fraction of intermediate
tuples whose key is in the frequent set.  Under Zipf(α) with ``m``
distinct keys that coverage is ``H_{k,α}/H_{m,α}``, so
:func:`paper_equivalent_k` solves for the k that gives our (smaller)
vocabulary the same coverage the paper's k gave theirs.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..analysis.breakdown import Breakdown, breakdown_from_ledger
from ..analysis.idle import IdleReport, aggregate_idle
from ..apps.base import AppJob
from ..apps.registry import build_application
from ..config import Keys
from ..core.freqbuf.zipf import generalized_harmonic
from ..engine.runner import JobResult, LocalJobRunner

#: The four configurations of Tables III/IV and Figure 9.
OPTIMIZATION_CONFIGS: tuple[str, ...] = ("baseline", "freq", "spill", "combined")

#: Paper parameters (Section V-B2) for reference-scale datasets.
PAPER_TEXT_K = 3000
PAPER_TEXT_VOCAB = 24_700_000
PAPER_TEXT_ALPHA = 1.0
PAPER_TEXT_S = 0.01
PAPER_LOG_K = 10_000
PAPER_LOG_URLS = 600_000
PAPER_LOG_ALPHA = 0.8
PAPER_LOG_S = 0.1


def coverage(k: int, m: int, alpha: float) -> float:
    """Fraction of a Zipf(α, m) stream covered by the top-k keys."""
    return generalized_harmonic(k, alpha) / generalized_harmonic(m, alpha)


def paper_equivalent_k(
    m: int, alpha: float, paper_k: int, paper_m: int, paper_alpha: float | None = None
) -> int:
    """The k giving our m-key stream the paper's top-k stream coverage."""
    target = coverage(paper_k, paper_m, paper_alpha if paper_alpha is not None else alpha)
    lo, hi = 1, m
    while lo < hi:
        mid = (lo + hi) // 2
        if coverage(mid, m, alpha) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def freqbuf_params_for(app: AppJob, num_splits: int = 4) -> dict[str, Any]:
    """Frequency-buffering parameters matching the paper's, at our scale.

    ``k`` comes from the stream-coverage translation above.  ``s`` is the
    paper's value *or*, when our per-task record counts are too small for
    it (the paper's 0.01 of a 100MB split is plenty; 0.01 of a 50KB split
    is a handful of records), the Section III-C requirement
    ``n·s >= k^α·H_{m,α}`` — exactly what the auto-tuning profiler would
    derive at runtime.
    """
    from ..core.freqbuf.zipf import required_sampling_fraction

    if app.text_centric:
        corpus = app.info.get("corpus")
        vocab = corpus.vocabulary if corpus is not None else 10_000
        records = corpus.total_words if corpus is not None else 100_000
        alpha, paper_s = PAPER_TEXT_ALPHA, PAPER_TEXT_S
        k = paper_equivalent_k(vocab, alpha, PAPER_TEXT_K, PAPER_TEXT_VOCAB)
    else:
        log = app.info.get("log")
        graph = app.info.get("graph")
        if log is not None:
            vocab, records = log.urls, log.visits
            alpha, paper_s = PAPER_LOG_ALPHA, PAPER_LOG_S
            k = paper_equivalent_k(vocab, alpha, PAPER_LOG_K, PAPER_LOG_URLS)
        elif graph is not None:
            vocab = graph.pages
            records = graph.pages * (graph.mean_out_degree + 1)
            alpha, paper_s = 1.0, PAPER_LOG_S
            k = paper_equivalent_k(vocab, alpha, PAPER_LOG_K, PAPER_LOG_URLS, 0.8)
        else:
            return {Keys.FREQBUF_K: 256, Keys.FREQBUF_SAMPLE_FRACTION: 0.05}

    per_task_records = max(1, records // max(1, num_splits))
    s = max(
        paper_s,
        required_sampling_fraction(alpha, max(16, k), per_task_records, vocab),
    )
    return {Keys.FREQBUF_K: max(16, k), Keys.FREQBUF_SAMPLE_FRACTION: s}


def config_overrides(config: str) -> dict[str, Any]:
    """JobConf overrides enabling one of the four configurations.

    Frequency-buffering parameters (k, s) are app-dependent and merged
    in by :func:`build_app`, which knows the dataset.
    """
    if config == "baseline":
        return {}
    if config == "freq":
        return {Keys.FREQBUF_ENABLED: True}
    if config == "spill":
        return {Keys.SPILLMATCHER_ENABLED: True}
    if config == "combined":
        return {Keys.FREQBUF_ENABLED: True, Keys.SPILLMATCHER_ENABLED: True}
    raise ValueError(f"unknown config {config!r}; have {OPTIMIZATION_CONFIGS}")


def build_app(
    name: str,
    config: str,
    scale: float = 0.1,
    extra_conf: Mapping[str, Any] | None = None,
    **kwargs: Any,
) -> AppJob:
    """Build an application instance under an optimization configuration.

    Builds once to learn the dataset shape (for k), then rebuilds with
    the merged configuration — generation is deterministic, so the two
    builds see identical data.
    """
    overrides: dict[str, Any] = dict(config_overrides(config))
    if overrides.get(Keys.FREQBUF_ENABLED):
        probe = build_application(name, scale=scale, **kwargs)
        overrides.update(freqbuf_params_for(probe, kwargs.get("num_splits", 4)))
    if extra_conf:
        overrides.update(dict(extra_conf))
    return build_application(name, scale=scale, conf_overrides=overrides, **kwargs)


#: Engine-level experiments (Figures 2/8/9, Table II) use a 16 KiB spill
#: buffer so that even small dataset scales produce the many-spills-per-
#: task regime the paper's testbed operated in (io.sort.mb=100MB against
#: multi-GB splits).  Without this, tiny runs degenerate to one spill and
#: the pipeline dynamics (and spill-matcher's adaptation) vanish.
ENGINE_EXPERIMENT_CONF: dict[str, Any] = {Keys.SPILL_BUFFER_BYTES: 16 * 1024}


def build_engine_app(
    name: str, config: str, scale: float = 0.08, **kwargs: Any
) -> AppJob:
    """`build_app` with the engine-experiment buffer configuration."""
    extra = dict(ENGINE_EXPERIMENT_CONF)
    extra.update(kwargs.pop("extra_conf", None) or {})
    return build_app(name, config, scale=scale, extra_conf=extra, **kwargs)


def run_engine_job(app: AppJob) -> JobResult:
    """Run an app on the single-node engine (Figures 2/8/9, Table II)."""
    return LocalJobRunner().run(app.job)


def job_breakdown(result: JobResult) -> Breakdown:
    return breakdown_from_ledger(result.job_name, result.ledger)


def job_idle(result: JobResult) -> IdleReport:
    return aggregate_idle(result.pipeline_results())
