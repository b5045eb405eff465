"""Frequency-buffering (the paper's Section III): Space-Saving profiling,
Zipf-driven auto-tuning, and the frequent-key hash buffer collector."""

from .autotune import AutotuneDecision, PreProfiler
from .collector import FrequencyBufferingCollector, Stage
from .predictors import (
    BufferStrategy,
    LRUStrategy,
    ProfiledTopKStrategy,
    ideal_strategy,
    simulate_removal,
    spacesaving_strategy,
)
from .spacesaving import SpaceSaving
from .zipf import (
    fit_alpha,
    fit_alpha_from_counts,
    generalized_harmonic,
    required_sampling_fraction,
    zipf_pmf,
)

__all__ = [
    "AutotuneDecision",
    "BufferStrategy",
    "FrequencyBufferingCollector",
    "LRUStrategy",
    "PreProfiler",
    "ProfiledTopKStrategy",
    "SpaceSaving",
    "Stage",
    "fit_alpha",
    "fit_alpha_from_counts",
    "generalized_harmonic",
    "ideal_strategy",
    "required_sampling_fraction",
    "simulate_removal",
    "spacesaving_strategy",
    "zipf_pmf",
]
