"""The cluster simulator's modelled numbers must not move.

Tables III and IV are made of :class:`~repro.cluster.jobtracker.
ClusterJobRunner` results, and no other test pins the modelled runtime.
``golden_simulator.json`` holds, for wordcount and invertedindex under
each optimization config on ``local_cluster()`` (a 16 KiB spill
buffer, so every config spills several times) and for one
speculative run on ``heterogeneous_cluster()``, the modelled runtime
and map-phase seconds, every map and reduce placement, the job
``Ledger`` and ``Counters``, the output digest and the speculation
bookkeeping — all ``==``, not approximately.

Regenerate the golden (only ever on a commit known to be right)::

    PYTHONPATH=src:. python tests/cluster/test_simulator_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster.jobtracker import ClusterJobRunner
from repro.cluster.speculation import SpeculationPolicy, heterogeneous_cluster
from repro.cluster.specs import local_cluster
from repro.config import Keys
from repro.engine.counters import Counters
from repro.engine.instrumentation import Ledger
from repro.engine.runner import JobResult
from repro.experiments.common import build_app

GOLDEN = Path(__file__).with_name("golden_simulator.json")

CONFIGS = ("baseline", "freq", "spill", "combined")
RUNS = [f"{app}-{config}" for app in ("wordcount", "invertedindex") for config in CONFIGS]
RUNS.append("wordcount-speculation")


def snapshot(run: str) -> dict:
    app_name, config = run.split("-")
    if config == "speculation":
        app = build_app("wordcount", "baseline", scale=0.04, num_splits=12)
        runner = ClusterJobRunner(heterogeneous_cluster(), speculation=SpeculationPolicy())
    else:
        app = build_app(
            app_name, config, scale=0.02, num_splits=4,
            extra_conf={Keys.SPILL_BUFFER_BYTES: 16 * 1024},
        )
        runner = ClusterJobRunner(local_cluster())
    result = runner.run(app)
    digest = JobResult(
        result.job_name, [], result.reduce_results, Ledger(), Counters()
    ).output_digest()
    return {
        "runtime_seconds": result.runtime_seconds,
        "map_phase_seconds": result.map_phase_seconds,
        "map_placements": [list(vars(p).values()) for p in result.map_placements],
        "reduce_placements": [list(vars(p).values()) for p in result.reduce_placements],
        "ledger": result.ledger.as_dict(),
        "counters": result.counters.as_dict(),
        "digest": digest,
        "backups": [runner.map_backups_launched, runner.map_backups_won],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", RUNS)
def test_simulator_numbers_identical(golden, run):
    assert snapshot(run) == golden[run]


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    GOLDEN.write_text(json.dumps({run: snapshot(run) for run in RUNS}, indent=1) + "\n")
