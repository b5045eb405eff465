"""Produce/consume rate measurement (Section IV-B).

"In our implementation, we measure time taken (measured in wall clock
time) to produce (T_p) and to consume (T_c) a spill, which are
inversely proportional to p and c."  The hypothesis is that input and
system characteristics stay roughly constant between adjacent spills,
so the last spill's measurement predicts the next spill's rates.

:class:`RateEstimator` implements exactly that last-observation
predictor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RateObservation:
    """One spill's measured production and consumption."""

    produce_time: float  # T_p
    consume_time: float  # T_c
    size_bytes: int

    @property
    def produce_rate(self) -> float:
        """p, in bytes per work unit."""
        return self.size_bytes / self.produce_time if self.produce_time > 0 else float("inf")

    @property
    def consume_rate(self) -> float:
        """c, in bytes per work unit."""
        return self.size_bytes / self.consume_time if self.consume_time > 0 else float("inf")


class RateEstimator:
    """Predicts the next spill's (T_p, T_c) from observations so far."""

    def __init__(self) -> None:
        self._produce_time: float | None = None
        self._consume_time: float | None = None
        self.observations = 0

    def observe(self, observation: RateObservation) -> None:
        self._produce_time = observation.produce_time
        self._consume_time = observation.consume_time
        self.observations += 1

    @property
    def has_estimate(self) -> bool:
        return self.observations > 0

    @property
    def produce_time(self) -> float:
        if self._produce_time is None:
            raise RuntimeError("no observations yet")
        return self._produce_time

    @property
    def consume_time(self) -> float:
        if self._consume_time is None:
            raise RuntimeError("no observations yet")
        return self._consume_time

    def produce_consume_ratio(self) -> float | None:
        """``p/c = T_c/T_p`` of the current estimate (None before data)."""
        if self._produce_time is None or self._consume_time is None:
            return None
        if self._produce_time <= 0:
            return None
        return self._consume_time / self._produce_time
