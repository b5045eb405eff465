"""The analysis layer surfaces network-shuffle traffic and waits."""

from __future__ import annotations

import pytest

from repro.analysis.idle import aggregate_idle
from repro.analysis.report import render_shuffle_traffic, shuffle_traffic
from repro.config import Keys
from repro.engine.runner import LocalJobRunner
from repro.experiments.common import build_app


def run_wordcount(shuffle: str, **conf):
    app = build_app(
        "wordcount", "baseline", scale=0.02, num_splits=3,
        extra_conf={Keys.SHUFFLE_MODE: shuffle, **conf},
    )
    return LocalJobRunner().run(app.job)


@pytest.mark.network
def test_per_host_traffic_reconciles_both_sides():
    result = run_wordcount("net")
    rows = shuffle_traffic(result)
    assert rows, "net mode must report traffic"
    # Single simulated host: the serving side and the fetching side of
    # the table describe the same bytes.
    assert sum(r.bytes_served for r in rows) == sum(r.bytes_fetched for r in rows)
    assert sum(r.requests_served for r in rows) == sum(r.fetches for r in rows)

    rendered = render_shuffle_traffic(result)
    assert "network shuffle traffic" in rendered
    assert rows[0].host in rendered


def test_mem_mode_renders_placeholder():
    result = run_wordcount("mem")
    assert shuffle_traffic(result) == []
    assert "repro.shuffle.mode = mem" in render_shuffle_traffic(result)


@pytest.mark.network
def test_idle_report_folds_in_fetch_waits():
    result = run_wordcount(
        "net",
        **{
            Keys.FAULTS_SPEC: "shuffle.refuse:1.0",
            Keys.SHUFFLE_BACKOFF_BASE: 0.005,
            Keys.SHUFFLE_BACKOFF_MAX: 0.02,
        },
    )
    pipelines = [r.pipeline for r in result.map_results if r.pipeline is not None]
    report = aggregate_idle(pipelines, result.reduce_results)
    assert report.fetch_retries == sum(r.fetch_retries for r in result.reduce_results)
    assert report.fetch_retries > 0
    assert report.fetch_wait > 0

    clean = aggregate_idle(pipelines, run_wordcount("mem").reduce_results)
    assert clean.fetch_retries == 0
    assert clean.fetch_wait == 0.0
