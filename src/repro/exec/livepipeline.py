"""A real two-thread map pipeline feeding the spill-matcher wall-clock rates.

By default :class:`~repro.engine.collector.StandardCollector` *models*
Hadoop's two-thread spill pipeline in abstract work units.
:class:`SupportThread`, its other spill-execution strategy, makes it
*live*: a real support thread sorts/combines/spills each drained buffer
concurrently with the map thread, and the policy is fed measured
wall-clock ``T_p``/``T_c`` — the paper's Section IV measurement loop,
with Eq. (1) unchanged: ``x* = max{T_p / (T_p + T_c), 1/2}``.

Threading protocol
------------------
* Handoff is a ``queue.Queue(maxsize=1)``: the map thread blocks at most
  one spill ahead (Hadoop's ``spillLock`` backpressure); a ``None``
  sentinel from :meth:`SupportThread.join` or ``abort`` stops the thread.
* The support thread charges work to its *own* ledger/counters and runs
  its *own* combiner, merged into the task's at join — so no mutable
  engine state is ever shared between the two threads mid-flight.
* A support-side exception is parked and re-raised on the map thread at
  the next spill or at join; the support loop keeps draining the queue
  after an error so the map thread can never block forever.

Each measured spill records three samples in the task ledger —
``pipeline.t_p``, ``pipeline.t_c`` and the chosen ``pipeline.x`` — so
experiments can audit the live thresholds against Eq. (1).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from ..engine.collector import StandardCollector
from ..engine.combiner import CombinerRunner
from ..engine.counters import Counters
from ..engine.instrumentation import Ledger, TaskInstruments

SAMPLE_T_P = "pipeline.t_p"
SAMPLE_T_C = "pipeline.t_c"
SAMPLE_X = "pipeline.x"

_SHUTDOWN = None  # queue sentinel


class SupportThread:
    """Spill execution on a real support thread, timed in seconds.

    *combiner_factory* takes the support thread's private
    :class:`Counters` and returns its own :class:`CombinerRunner`
    (``None`` for combinerless jobs): a CombinerRunner charges the
    counters it was built with, and the map thread's must not be shared.
    """

    def __init__(
        self,
        collector: StandardCollector,
        combiner_factory: Callable[[Counters], CombinerRunner | None] | None = None,
    ) -> None:
        self.collector = collector
        # The accounting sinks a spill charges: the support thread's own.
        self.instruments = TaskInstruments(Ledger())
        self.counters = Counters()
        self.combiner_runner = combiner_factory(self.counters) if combiner_factory else None
        self._handoff: queue.Queue = queue.Queue(maxsize=1)
        self._error: BaseException | None = None
        self._aborted = False
        self._joined = False
        self._produce_clock = time.perf_counter()
        name = f"{collector.task_id}.support"
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    def submit(self, spill: Any, size_bytes: int) -> None:
        self._raise_error()
        # T_p: wall time the map thread spent producing this buffer-load,
        # measured up to the handoff so time blocked on a busy support
        # thread is excluded (that block is exactly the pipeline stall
        # the spill-matcher is trying to eliminate).
        t_p = time.perf_counter() - self._produce_clock
        self._handoff.put((spill, size_bytes, t_p))
        self._produce_clock = time.perf_counter()

    def join(self) -> None:
        if self._shutdown():
            self._raise_error()
            # Fold the support thread's private accounting into the task's.
            self.collector.instruments.ledger.merge(self.instruments.ledger)
            self.collector.counters.merge(self.counters)

    def abort(self) -> None:
        """Stop the support thread after a failed attempt.  The loop
        discards queued work once the flag is set, so the sentinel is
        consumed promptly and join cannot deadlock."""
        self._aborted = True
        self._shutdown()

    def _shutdown(self) -> bool:
        """Stop the thread; ``False`` if an earlier call already did."""
        if self._joined:
            return False
        self._joined = True
        self._handoff.put(_SHUTDOWN)
        self._thread.join()
        return True

    def _raise_error(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _loop(self) -> None:
        collector = self.collector
        ledger = self.instruments.ledger
        while True:
            item = self._handoff.get()
            if item is _SHUTDOWN:
                return
            if self._aborted or self._error is not None:
                continue  # drain without working; map thread must not block
            spill, size_bytes, t_p = item
            try:
                start = time.perf_counter()
                collector._consume(spill, self)
                t_p = max(t_p, 1e-9)
                t_c = max(time.perf_counter() - start, 1e-9)
                # Feed the policy measured seconds; record the audit trail.
                x = collector._observe(t_p, t_c, size_bytes)
                ledger.add_sample(SAMPLE_T_P, t_p)
                ledger.add_sample(SAMPLE_T_C, t_c)
                ledger.add_sample(SAMPLE_X, x)
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                self._error = exc
