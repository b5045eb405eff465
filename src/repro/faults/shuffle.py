"""Deterministic fault injection for the network shuffle.

Real shuffles fail in real ways: peers refuse connections, streams die
mid-transfer, disks hand back corrupt bytes, stragglers serve slowly.
The :class:`FaultPlan` reproduces those failure modes *deterministically*
so tests can exercise every retry path without flaky randomness:
whether a fetch is selected is a stable hash of ``(seed, map task,
partition)``, and only the first ``attempts`` requests for a selected
fetch are faulted — so bounded retries always converge, and raising
``attempts`` to the fetcher's retry budget forces a clean exhaustion.

Kinds
-----
``refuse``    the server answers with an explicit ``ERR BUSY`` frame.
``drop``      the connection is closed after the request, before any
              response byte (the client sees a mid-stream EOF).
``truncate``  a well-framed response whose segment bytes are cut at the
              halfway point and zero-padded — framing parses, the CRC
              check fails client-side.
``delay``     the response is served whole, ``delay_seconds`` late (with
              a client timeout below the delay this is a slow-peer
              retry; above it, just measured slowness).

Configure with a ``shuffle.<kind>:fraction[:attempts]`` rule in the
unified fault spec (``repro.faults.spec`` / ``--fault`` / ``REPRO_FAULT``,
see :mod:`repro.faults.plan`); :meth:`FaultPlan.from_unified` is the
only bridge, so one spec and one seed drive every site.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..errors import ConfigError
from .plan import FaultPlan as UnifiedFaultPlan

FAULT_KINDS = ("none", "refuse", "drop", "truncate", "delay")


@dataclass(frozen=True)
class FaultPlan:
    """Which fetches to hurt, how, and for how many attempts."""

    kind: str = "none"
    fraction: float = 0.0
    attempts: int = 1
    delay_seconds: float = 0.05
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown shuffle fault kind {self.kind!r}; choose one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(f"fault fraction {self.fraction!r} must lie in [0, 1]")
        if self.attempts < 1:
            raise ConfigError(f"fault attempts {self.attempts!r} must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.kind != "none" and self.fraction > 0.0

    def selects(self, map_task_id: str, partition: int) -> bool:
        """Stable per-fetch selection: the same (seed, task, partition)
        always lands on the same side of the fraction threshold."""
        if not self.enabled:
            return False
        digest = zlib.crc32(f"{self.seed}:{map_task_id}:{partition}".encode())
        return (digest % 1_000_000) < self.fraction * 1_000_000

    @classmethod
    def from_unified(cls, unified: UnifiedFaultPlan) -> "FaultPlan":
        """The shuffle server's plan under a unified fault plan: its
        first ``shuffle.*`` rule with the plan's seed and delay, or the
        disabled plan when it has none."""
        rule = unified.rule("shuffle")
        if rule is None:
            return cls()
        return cls(
            kind=rule.kind,
            fraction=rule.fraction,
            attempts=rule.attempts,
            delay_seconds=unified.delay_seconds,
            seed=unified.seed,
        )
