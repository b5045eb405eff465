"""The auto-tuning profiler (Section III-C).

Ties the pieces together: a *pre-profiling* pass over roughly 1% of the
intermediate records collects exact counts, fits the Zipf exponent α,
estimates the distinct-key population, and derives the sampling
fraction ``s`` the main Space-Saving profiling stage should run for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .zipf import fit_alpha_from_counts, required_sampling_fraction


@dataclass(frozen=True)
class AutotuneDecision:
    """Outcome of the pre-profiling stage."""

    alpha: float
    sampling_fraction: float
    distinct_keys_seen: int
    records_seen: int


class PreProfiler:
    """Collects exact key counts over a short prefix of the emit stream.

    Exact counting is affordable here precisely because the prefix is
    tiny (~1% of records); its purpose is only to estimate the *shape*
    (α) of the distribution, not the identity of the frequent keys.
    """

    def __init__(self, k: int, expected_total_records: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if expected_total_records <= 0:
            raise ValueError(
                f"expected_total_records must be positive, got {expected_total_records}"
            )
        self.k = k
        self.expected_total_records = expected_total_records
        self._counts: dict[Hashable, int] = {}
        self.records_seen = 0

    def observe(self, key: Hashable) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1
        self.records_seen += 1

    def counts(self) -> dict[Hashable, int]:
        """Exact occurrences of every key observed so far."""
        return self._counts

    def decide(self) -> AutotuneDecision:
        """Fit α and choose ``s``.

        The distinct-key population ``m`` is extrapolated from the
        pre-profile by a capture-rate argument: if the sample of ``r``
        records yielded ``d`` distinct keys with fraction ``u`` of them
        singletons, Good–Turing says the unseen mass is ≈ ``u``, so the
        population is roughly ``d / (1 - u)`` (clamped sanely).  A rough
        ``m`` suffices — ``s`` depends on it only through ``log m`` for
        α near 1.
        """
        if len(self._counts) < 3:
            # Degenerate stream (e.g. nearly one key): any tiny sample
            # identifies the frequent set.
            return AutotuneDecision(
                alpha=1.0,
                sampling_fraction=0.001,
                distinct_keys_seen=len(self._counts),
                records_seen=self.records_seen,
            )
        alpha = fit_alpha_from_counts(self._counts)
        singletons = sum(1 for c in self._counts.values() if c == 1)
        unseen_mass = singletons / max(1, self.records_seen)
        distinct_estimate = int(len(self._counts) / max(0.05, 1.0 - unseen_mass))
        distinct_estimate = max(distinct_estimate, len(self._counts), self.k)
        fraction = required_sampling_fraction(
            alpha=alpha,
            k=self.k,
            total_records=self.expected_total_records,
            distinct_keys=distinct_estimate,
        )
        return AutotuneDecision(
            alpha=alpha,
            sampling_fraction=fraction,
            distinct_keys_seen=len(self._counts),
            records_seen=self.records_seen,
        )
