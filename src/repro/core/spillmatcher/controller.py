"""The spill-matcher runtime controller.

Plugs into the engine as a :class:`~repro.engine.spillpolicy.SpillPolicy`:
before each spill the collector asks for the spill percentage; after
each spill it reports the measured ``T_p``/``T_c``/size.  The first
spill runs at the configured default (there is nothing to adapt from
yet); every subsequent spill uses the control law of
:mod:`repro.core.spillmatcher.policy` on the latest rate estimate —
"our technique adapts the spill percentage at the granularity of a
spill in each map task" (Section IV-B).
"""

from __future__ import annotations

from ...engine.spillpolicy import SpillPolicy
from .policy import optimal_from_times
from .rates import RateEstimator, RateObservation


class SpillMatcherPolicy(SpillPolicy):
    """Adaptive per-spill threshold controller."""

    def __init__(
        self,
        initial_percent: float = 0.8,
        min_percent: float = 0.05,
        max_percent: float = 0.95,
    ) -> None:
        if not 0.0 < initial_percent <= 1.0:
            raise ValueError(f"initial percent must be in (0, 1], got {initial_percent}")
        self.initial_percent = initial_percent
        self.min_percent = min_percent
        self.max_percent = max_percent
        self.estimator = RateEstimator()
        self.history: list[float] = []
        self.observations: list[RateObservation] = []

    def spill_percent(self) -> float:
        if not self.estimator.has_estimate:
            x = self.initial_percent
        else:
            x = optimal_from_times(
                self.estimator.produce_time,
                self.estimator.consume_time,
                self.min_percent,
                self.max_percent,
            )
        self.history.append(x)
        return x

    def observe(self, produce_work: float, consume_work: float, size_bytes: int) -> None:
        if produce_work <= 0 or consume_work <= 0 or size_bytes <= 0:
            return  # degenerate measurement; keep the previous estimate
        observation = RateObservation(produce_work, consume_work, size_bytes)
        self.observations.append(observation)
        self.estimator.observe(observation)

    def produce_consume_ratio(self) -> float | None:
        return self.estimator.produce_consume_ratio()

    def __repr__(self) -> str:
        if self.estimator.has_estimate:
            return (
                f"SpillMatcherPolicy(x={self.history[-1] if self.history else '?'}, "
                f"T_p={self.estimator.produce_time:.1f}, "
                f"T_c={self.estimator.consume_time:.1f})"
            )
        return f"SpillMatcherPolicy(initial={self.initial_percent})"
