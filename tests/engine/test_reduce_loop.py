"""The reduce loop settles its accounting in bulk; the numbers must not move.

``ReduceTaskRunner`` used to charge ``Op.SHUFFLE`` and ``Op.REDUCE`` and
bump ``REDUCE_INPUT_GROUPS``/``REDUCE_INPUT_RECORDS`` once per group.  It
now accumulates all four in locals and writes them back once after the
loop.  ``golden_reduceloop.json`` was captured on ``093b60f``, the last
commit with the per-group loop (and the heap merge and generator decoder
feeding it): for multi-value groups (wordcount without a combiner),
one-value groups (distributedsort), ``group_key_fn`` groups (the
secondary-sort job) and the disk-staged reduce merge, under both shuffle
modes, the output digest, every job counter and ledger float, and every
reduce task's own counters and ledger must be ``==`` — not approximately.
The net entries hold no ``shuffle`` ledger entry: they were captured when
net mode charged ``Op.SHUFFLE`` from measured socket seconds.  Net mode now
prices it as mem mode does, so each net ``shuffle`` entry, the job's and
every reduce task's, must equal the mem golden's.

Regenerate the golden (only ever on a commit known to be right)::

    PYTHONPATH=src:. python tests/engine/test_reduce_loop.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import Keys
from repro.engine.runner import LocalJobRunner
from repro.experiments.common import build_app
from tests.conftest import make_wordcount_job
from tests.engine.test_secondary_sort import make_session_job

GOLDEN = Path(__file__).with_name("golden_reduceloop.json")

_WORDS = ["apple", "banana", "cherry", "date", "elder", "fig", "épée", "漢字"]
TEXT = "".join(
    " ".join(_WORDS[j % len(_WORDS)] for j in range(i % 9 + 1)) + f" apple word{i % 13}\n"
    for i in range(150)
).encode()

#: 14 users × 12 timestamps, interleaved so no map task sees a user's
#: events in time order.
EVENTS = "".join(
    f"user{(i * 5) % 14:02d} {(i * 7) % 12:02d} act{i % 4}\n" for i in range(14 * 12)
).encode()


def _wordcount(**conf):
    return make_wordcount_job(
        TEXT, {Keys.NUM_REDUCERS: 2, **conf}, num_splits=6, combiner=False
    )


def _sort(**conf):
    return build_app(
        "distributedsort",
        "baseline",
        scale=0.1,
        extra_conf={Keys.NUM_REDUCERS: 4, Keys.SPILL_BUFFER_BYTES: 8 * 1024, **conf},
    ).job


def _sessions(**conf):
    job = make_session_job(EVENTS, reducers=3)
    job.conf.update(conf)
    return job


JOBS = {
    "wordcount": _wordcount,
    "distributedsort": _sort,
    "secondarysort": _sessions,
    # 256 bytes of reduce memory: every second fetched segment forces a
    # merge pass to the staging disk (tests/engine/test_shuffle_staging.py).
    "wordcount-staged": lambda **conf: _wordcount(**{Keys.REDUCE_MEMORY_BYTES: 256, **conf}),
}
MODES = ("mem", "net")


def snapshot(job_name: str, mode: str) -> dict:
    result = LocalJobRunner().run(JOBS[job_name](**{Keys.SHUFFLE_MODE: mode}))

    def accounting(counters, ledger) -> dict:
        return {"counters": counters.as_dict(), "ledger": ledger.as_dict()}

    return {
        "digest": result.output_digest(),
        "job": accounting(result.counters, result.ledger),
        "reduces": [accounting(task.counters, task.ledger) for task in result.reduce_results],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("job_name", JOBS)
def test_reduce_accounting_identical_mem(golden, job_name):
    assert snapshot(job_name, "mem") == golden[f"{job_name}/mem"]


@pytest.mark.network
@pytest.mark.parametrize("job_name", JOBS)
def test_reduce_accounting_identical_net(golden, job_name):
    net = snapshot(job_name, "net")
    mem = golden[f"{job_name}/mem"]
    for task, mem_task in zip([net["job"], *net["reduces"]], [mem["job"], *mem["reduces"]]):
        assert task["ledger"].pop("shuffle") == mem_task["ledger"]["shuffle"]
    assert net == golden[f"{job_name}/net"]


def without_shuffle(snap: dict) -> dict:
    """*snap* in the net golden's layout: no ``shuffle`` ledger entry."""
    for task in (snap["job"], *snap["reduces"]):
        task["ledger"].pop("shuffle", None)
    return snap


def test_golden_covers_the_group_shapes(golden):
    """The cases are what the docstring says they are."""
    groups = lambda case: golden[case]["job"]["counters"]["reduce_input_groups"]
    records = lambda case: golden[case]["job"]["counters"]["reduce_input_records"]
    assert records("wordcount/mem") > 5 * groups("wordcount/mem")
    assert records("distributedsort/mem") == groups("distributedsort/mem") > 1000
    assert records("secondarysort/mem") == 12 * groups("secondarysort/mem")
    staged = golden["wordcount-staged/mem"]["job"]
    assert staged["ledger"]["shuffle"] > golden["wordcount/mem"]["job"]["ledger"]["shuffle"]
    assert staged["counters"] == golden["wordcount/mem"]["job"]["counters"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                f"{name}/{mode}": (
                    without_shuffle(snapshot(name, mode)) if mode == "net"
                    else snapshot(name, mode)
                )
                for name in JOBS for mode in MODES
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
