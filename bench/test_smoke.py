"""Smoke tests of the benchmark harness (``python -m pytest bench -q``).

Not part of tier-1 (``testpaths = ["tests"]``): they run real jobs, at
1/50 of the benchmark's size.
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--scale-factor", "0.02", "--reps", "1", "--seconds", "0"]


def run(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    done = run("--check", "--seed", "0", "--out", str(out), *TINY)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads((out / "result.json").read_text())


def test_every_declared_metric_is_present_and_finite(result):
    _, doc = result
    assert doc["problems"] == []
    assert doc["claim"] is None
    assert list(doc["workloads"]) == [w["name"] for w in DECLARED["workloads"]]
    for name, workload in doc["workloads"].items():
        assert workload["failed"] == 0, (name, workload["failures"])
        for section in ("end_to_end", "per_layer"):
            assert list(workload[section]) == [m["name"] for m in DECLARED[section]], name
            for metric, m in workload[section].items():
                assert math.isfinite(m["value"]), (name, metric)
        for metric in DECLARED["end_to_end"]:
            assert workload["end_to_end"][metric["name"]]["value"] > 0, (name, metric)


def test_wordcount_workloads_share_one_digest(result):
    _, doc = result
    digests = {w["digest"] for name, w in doc["workloads"].items() if name.startswith("wc-")}
    assert len(digests) == 1


def test_environment_stamp(result):
    _, doc = result
    env = doc["env"]
    for key in ("nproc", "python", "platform", "commit", "seed", "scale_factor",
                "loadavg_start", "loadavg_end"):
        assert key in env
    assert all(w["sizes"]["input_records"] > 0 for w in doc["workloads"].values())


def test_trace_files_hold_nested_spans_with_nonnegative_self_time(result):
    out, doc = result
    for name in doc["workloads"]:
        spans = json.loads((out / f"trace-{name}.json").read_text())["spans"]
        names = {span["name"] for span in spans}
        assert {"job", "maptask", "reducetask"} <= names or name == "wc-cluster1"
        for span in spans:
            assert span["root"] == "job"
            assert span["self_s"] is None or span["self_s"] >= 0, (name, span)
    serial = json.loads((out / "trace-wc-baseline.json").read_text())["spans"]
    assert {"inputformat.read", "apps.map", "collector.collect", "apps.combine",
            "apps.reduce"} <= {span["name"] for span in serial}


def test_driver_line_has_exactly_the_contract_keys(tmp_path):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--workload", "sort-net", "--seed", "7", "--trace", trace,
                   "--out", str(tmp_path), *TINY)
        assert done.returncode == 0, done.stdout + done.stderr
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in DECLARED[section]]
        for metric in DECLARED[section]:
            assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("--workload", "wc-baseline", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# import hygiene: later simplicity PRs may not edit bench/, so it may
# lean only on seams they are not going to delete.

STABLE_SEAMS = {
    ("repro.experiments.common", "build_app"),
    ("repro.engine.runner", "LocalJobRunner"),
    ("repro.config", "Keys"),
    ("repro.engine.counters", "Counter"),
    ("repro.engine.instrumentation", "Op"),
    ("repro.analysis.idle", "aggregate_idle"),
    ("repro.shuffle.nodecombine", "NodeCombiner"),
}


def test_bench_imports_only_the_stable_seams():
    used = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                assert node.level == 0
                used |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro."):
                        used.add((alias.name, "*"))
    assert used <= STABLE_SEAMS, sorted(used - STABLE_SEAMS)
    assert used, "the scan found no repro import at all"


# ----------------------------------------------------------------------
# compare.py


def _metric(samples):
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "samples": samples}


def test_compare_verdicts():
    sys.path.insert(0, str(BENCH))
    try:
        from compare import verdict
    finally:
        sys.path.remove(str(BENCH))
    steady = _metric([1.00, 1.01, 1.02, 1.01, 1.00])
    assert verdict(steady, _metric([1.02, 1.03, 1.02, 1.01, 1.03]), "lower", 0.10)[0] == "unchanged"
    assert verdict(steady, _metric([1.20, 1.21, 1.22, 1.21, 1.20]), "lower", 0.10)[0] == "regressed"
    assert verdict(steady, _metric([1.20, 1.21, 1.22, 1.21, 1.20]), "higher", 0.10)[0] == "better"
    noisy = _metric([0.90, 1.00, 1.30, 1.05, 0.80])
    assert verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"
    # Spread wider than the bound, yet every sample of B beats every one of A.
    assert verdict(_metric([1.0, 1.2, 1.4, 1.1, 1.3]), _metric([0.90, 0.95, 0.99, 0.93, 0.97]),
                   "lower", 0.10)[0] == "better"


def test_compare_exits_nonzero_on_a_regression(result, tmp_path):
    out, doc = result
    slower = json.loads(json.dumps(doc))
    metric = slower["workloads"]["sort-net"]["end_to_end"]["job_s"]
    for key in ("value", "q1", "q3"):
        metric[key] *= 2
    metric["samples"] = [2 * s for s in metric["samples"]]
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    same = run(str(out / "result.json"), str(out / "result.json"), script=BENCH / "compare.py")
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regressed" not in same.stdout
    worse = run(str(out / "result.json"), str(tmp_path / "slower.json"),
                script=BENCH / "compare.py")
    assert worse.returncode == 1
    assert "regressed" in worse.stdout
