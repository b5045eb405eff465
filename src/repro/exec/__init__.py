"""Execution backends for the repro engine (``repro.exec``).

The engine's task machinery is execution-agnostic; this package decides
*where* task attempts run:

``serial``
    The original in-order, in-thread loop — the reference backend.
``cluster``
    A master scheduling over forked worker daemons that register and
    heartbeat over localhost TCP, spill to real temp disk, and survive
    worker crashes, hangs and poison tasks, with locality-aware
    placement and speculative re-execution
    (:mod:`repro.cluster.runtime`) — the backend that scales CPU-bound
    maps across cores.

Every backend is a task transport under the one job plan in
:meth:`repro.exec.base.Executor.run`, and is registered by dotted name:
a run imports only the backend it uses (a serial job never loads
``multiprocessing`` or ``concurrent.futures``).

Select with the ``repro.exec.backend`` / ``repro.exec.workers`` conf
keys or the CLI's ``--backend`` / ``--workers`` flags.  Within a task
the spill pipeline's two threads are modelled, not run: every spill is
consumed inline (:mod:`repro.engine.collector`).
"""

from __future__ import annotations

import importlib

from ..errors import ExecBackendError
from .base import Executor

#: ``name -> module:class`` for every backend; resolved on first use.
_LAZY_BACKENDS: dict[str, str] = {
    "serial": "repro.exec.serial:SerialExecutor",
    "cluster": "repro.cluster.runtime.master:ClusterExecutor",
}

#: The backends resolved so far (a cache over :data:`_LAZY_BACKENDS`).
BACKENDS: dict[str, type[Executor]] = {}


def backend_names() -> list[str]:
    """Every selectable backend name, sorted."""
    return sorted(_LAZY_BACKENDS)


def _resolve(backend: str) -> type[Executor]:
    if backend not in BACKENDS:
        if backend not in _LAZY_BACKENDS:
            raise ExecBackendError(
                f"unknown execution backend {backend!r}; "
                f"choose one of {', '.join(backend_names())}"
            )
        module_name, _, class_name = _LAZY_BACKENDS[backend].partition(":")
        BACKENDS[backend] = getattr(importlib.import_module(module_name), class_name)
    return BACKENDS[backend]


def create_executor(
    backend: str, workers: int = 0, host: str = "localhost"
) -> Executor:
    """Instantiate the named backend (``serial`` | ``cluster``)."""
    return _resolve(backend)(workers=workers, host=host)


__all__ = ["BACKENDS", "Executor", "backend_names", "create_executor"]
