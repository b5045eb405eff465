"""The map task's read loop charges inline; the numbers must not move.

``MapTaskRunner._run_task`` used to charge ``Op.READ``/``Op.MAP``
through ``TaskInstruments.charge_map_thread`` and bump the input
counters through ``Counters.incr`` once per record, and to hand every
collector a progress hint.  It now makes the same additions in its own
frame, still per record (the spill-matcher reads the map-thread meter
at every spill, so ``T_p`` depends on when each addition lands).
``golden_maploop.json`` was captured on ``28afe1f``, the last commit
with the per-record method calls: for wordcount ``combined``
(spill-matcher + frequency buffering: the ``T_p`` sequence and the
profiling stage's progress trigger), the output digest, every job
counter and ledger float, and every map task's pipeline timeline —
busy, elapsed and each spill's produce work, consume work and size —
must be ``==``, not approximately.

Regenerate the golden (only ever on a commit known to be right)::

    PYTHONPATH=src:. python tests/engine/test_map_loop.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import Keys
from repro.engine.runner import LocalJobRunner
from repro.experiments.common import build_app

GOLDEN = Path(__file__).with_name("golden_maploop.json")

JOBS = {
    "wordcount-combined": lambda: build_app(
        "wordcount", "combined", scale=0.02, num_splits=3,
        extra_conf={Keys.SPILL_BUFFER_BYTES: 16 * 1024},
    ).job,
}


def snapshot(job_name: str) -> dict:
    result = LocalJobRunner().run(JOBS[job_name]())
    return {
        "digest": result.output_digest(),
        "counters": result.counters.as_dict(),
        "ledger": result.ledger.as_dict(),
        "maps": [
            {
                "map_busy": task.pipeline.map_busy,
                "support_busy": task.pipeline.support_busy,
                "elapsed": task.pipeline.elapsed,
                "spills": [
                    [spill.produce_work, spill.consume_work, spill.size_bytes]
                    for spill in task.pipeline.spills
                ],
            }
            for task in result.map_results
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("job_name", JOBS)
def test_map_accounting_identical(golden, job_name):
    assert snapshot(job_name) == golden[job_name]


def test_golden_covers_the_map_loop_shapes(golden):
    """The cases are what the docstring says they are."""
    combined = golden["wordcount-combined"]
    assert combined["counters"]["freqbuf_hits"] > 0
    assert combined["counters"]["freqbuf_profiled_records"] > 0
    assert all(len(task["spills"]) > 1 for task in combined["maps"])


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: snapshot(name) for name in JOBS}, indent=1, sort_keys=True) + "\n"
    )
