"""Chaos matrix: fault kind × exec backend × shuffle mode.

Every cell that can fire must survive its injected faults and reproduce
the fault-free output byte for byte — composition of the recovery
layers (task retry, worker rescheduling, shuffle fetch retry) is exactly
what single-site tests can't cover.  Only cells that can fire are
enumerated: ``worker.*`` rules arm only inside real worker processes
(the cluster backend's daemons), and ``shuffle.*`` rules only in the
network shuffle server.  All cells share one seed, so a red cell
reproduces locally with the same command every time.
"""

from __future__ import annotations

import pytest

from repro.config import Keys
from repro.engine.counters import Counter
from repro.engine.runner import JobResult, LocalJobRunner

from ..conftest import make_wordcount_job

SEED = 1234

# kind -> (spec, needs_worker_processes, needs_net_shuffle)
FAULT_MATRIX = {
    "disk-corrupt": ("disk.corrupt:1.0:1", False, False),
    "disk-torn": ("disk.torn:1.0:1", False, False),
    "worker-kill": ("worker.kill:0.5", True, False),
    "shuffle-drop": ("shuffle.drop:0.5:1", False, True),
    "shuffle-truncate": ("shuffle.truncate:0.5:1", False, True),
    "combined": ("worker.kill:0.4;disk.corrupt:0.5", True, False),
}
#: Every (kind, backend, shuffle mode) cell that can fire: ``serial``
#: takes the in-process kinds, ``cluster`` every kind.
CELLS = [
    pytest.param(kind, backend, mode, id=f"{kind}-{backend}-{mode}")
    for kind, (_spec, needs_process, needs_net) in FAULT_MATRIX.items()
    for backend in ("serial", "cluster")
    for mode in ("mem", "net")
    if not (needs_process and backend == "serial") and not (needs_net and mode == "mem")
]


def run_cell(data: bytes, backend: str, shuffle_mode: str, spec: str = "") -> JobResult:
    conf: dict = {
        Keys.EXEC_BACKEND: backend,
        Keys.EXEC_WORKERS: 3,
        Keys.SHUFFLE_MODE: shuffle_mode,
    }
    if spec:
        conf[Keys.FAULTS_SPEC] = spec
        conf[Keys.FAULTS_SEED] = SEED
    job = make_wordcount_job(data, conf_overrides=conf, num_splits=3)
    return LocalJobRunner().run(job)


def output_bytes(result: JobResult) -> list[tuple[bytes, bytes]]:
    return [(k.to_bytes(), v.to_bytes()) for k, v in result.output_pairs()]


@pytest.mark.chaos
@pytest.mark.parametrize(("kind", "backend", "shuffle_mode"), CELLS)
def test_matrix_cell_recovers_byte_identical(
    kind: str, backend: str, shuffle_mode: str, tiny_text
) -> None:
    spec, needs_process, needs_net = FAULT_MATRIX[kind]
    clean = run_cell(tiny_text, backend, shuffle_mode)
    faulty = run_cell(tiny_text, backend, shuffle_mode, spec)
    assert output_bytes(faulty) == output_bytes(clean), (kind, backend, shuffle_mode)

    # The recovery machinery actually engaged — this wasn't a no-op cell.
    if kind.startswith("disk"):
        assert faulty.counters.get(Counter.TASK_REEXECUTIONS) > 0
    if needs_process:
        assert faulty.counters.get(Counter.WORKER_CRASHES) > 0
    if needs_net:
        assert faulty.counters.get(Counter.SHUFFLE_FETCH_RETRIES) > 0


@pytest.mark.chaos
def test_unified_shuffle_rule_drives_the_shuffle_server(tiny_text) -> None:
    """A ``shuffle.*`` rule in the unified plan reaches a serial run's
    in-process shuffle server, whose fetches then retry."""
    result = run_cell(tiny_text, "serial", "net", "shuffle.refuse:0.5:1")
    assert result.counters.get(Counter.SHUFFLE_FETCH_RETRIES) > 0
