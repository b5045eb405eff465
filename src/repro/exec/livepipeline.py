"""A real two-thread map pipeline feeding the spill-matcher wall-clock rates.

The engine's :class:`~repro.engine.collector.StandardCollector` *models*
Hadoop's two-thread spill pipeline: sort/combine/spill run inline and
their cost is charged in abstract work units, from which the
spill-matcher derives its produce/consume rates.  This module makes the
pipeline *live*: a real support thread drains the spill buffer and runs
sort/combine/spill concurrently with the map thread, and the policy is
fed measured wall-clock ``T_p``/``T_c`` per spill — the actual
measurement loop of the paper's Section IV rather than a simulation of
it.  Eq. (1) then applies to the measured ratios unchanged:
``x* = max{T_p / (T_p + T_c), 1/2}``.

Threading protocol
------------------
* Handoff is a ``queue.Queue(maxsize=1)``: the map thread blocks at most
  one spill ahead of the support thread (Hadoop's ``spillLock``
  backpressure), and a ``None`` sentinel shuts the thread down from
  either :meth:`flush` (via ``_join_support``) or :meth:`abort`.
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
from typing import Callable

from ..engine.collector import StandardCollector
from ..engine.combiner import CombinerRunner
from ..engine.counters import Counters
from ..engine.instrumentation import Ledger, TaskInstruments

SAMPLE_T_P = "pipeline.t_p"
SAMPLE_T_C = "pipeline.t_c"
SAMPLE_X = "pipeline.x"

_SHUTDOWN = None  # queue sentinel


class LiveStandardCollector(StandardCollector):
    """StandardCollector whose support thread is a real thread.

    Accepts every StandardCollector argument plus
    *support_combiner_factory*: a callable taking the support thread's
    private :class:`Counters` and returning the support thread's own
    :class:`CombinerRunner` (``None`` for combinerless jobs).  The
    factory exists because a CombinerRunner charges the counters it was
    built with — the support thread must not share the map thread's.
    """

    def __init__(
        self,
        *args,
        support_combiner_factory: Callable[[Counters], CombinerRunner] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._support_instruments = TaskInstruments(Ledger())
        self._support_counters = Counters()
        self._support_combiner = (
            support_combiner_factory(self._support_counters)
            if support_combiner_factory is not None
            else None
        )
        self._handoff: queue.Queue = queue.Queue(maxsize=1)
        self._support_error: BaseException | None = None
        self._aborted = False
        self._joined = False
        self._produce_clock = time.perf_counter()
        self._support = threading.Thread(
            target=self._support_loop, name=f"{self.task_id}.support", daemon=True
        )
        self._support.start()

    # ------------------------------------------------------------------
    # map-thread side
    # ------------------------------------------------------------------
    def _spill(self) -> None:
        if self.buffer.is_empty:
            return
        self._raise_support_error()
        size_bytes = self.buffer.occupancy_bytes
        spill = self.buffer.drain()
        # T_p: wall time the map thread spent producing this buffer-load,
        # measured up to the handoff so time blocked on a busy support
        # thread is excluded (that block is exactly the pipeline stall
        # the spill-matcher is trying to eliminate).
        t_p = time.perf_counter() - self._produce_clock
        self._handoff.put((spill, size_bytes, t_p))
        self._produce_clock = time.perf_counter()

    def _join_support(self) -> None:
        if self._joined:
            return
        self._joined = True
        self._handoff.put(_SHUTDOWN)
        self._support.join()
        self._raise_support_error()
        # Fold the support thread's private accounting into the task's.
        self.instruments.ledger.merge(self._support_instruments.ledger)
        self.counters.merge(self._support_counters)

    def abort(self) -> None:
        """Stop the support thread after a failed attempt.  The loop
        discards queued work once the flag is set, so the sentinel is
        consumed promptly and join cannot deadlock."""
        self._aborted = True
        if self._joined:
            return
        self._joined = True
        self._handoff.put(_SHUTDOWN)
        self._support.join()

    def _raise_support_error(self) -> None:
        if self._support_error is not None:
            error = self._support_error
            self._support_error = None
            raise error

    # ------------------------------------------------------------------
    # support-thread side
    # ------------------------------------------------------------------
    def _support_loop(self) -> None:
        while True:
            item = self._handoff.get()
            if item is _SHUTDOWN:
                return
            if self._aborted or self._support_error is not None:
                continue  # drain without working; map thread must not block
            spill, size_bytes, t_p = item
            try:
                start = time.perf_counter()
                self._consume_spill(
                    spill,
                    self._support_instruments,
                    self._support_counters,
                    self._support_combiner,
                )
                t_c = time.perf_counter() - start
                self._observe(t_p, t_c, size_bytes)
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                self._support_error = exc

    def _observe(self, t_p: float, t_c: float, size_bytes: int) -> None:
        """Feed the policy measured seconds and record the audit trail."""
        t_p = max(t_p, 1e-9)
        t_c = max(t_c, 1e-9)
        self.timeline.record_spill(t_p, t_c, size_bytes)
        self.policy.observe(t_p, t_c, size_bytes)
        x = self.policy.spill_percent()
        self._spill_target = self.timeline.expected_next_size(
            x, self.policy.produce_consume_ratio()
        )
        ledger = self._support_instruments.ledger
        ledger.add_sample(SAMPLE_T_P, t_p)
        ledger.add_sample(SAMPLE_T_C, t_c)
        ledger.add_sample(SAMPLE_X, x)
