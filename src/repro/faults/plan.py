"""The unified fault plan: which sites to hurt, how, and for how long.

A plan is a set of :class:`FaultRule` s, each naming an injection
*site* in the framework and a failure *kind* that site knows how to
simulate:

========  ==========================  =============================================
site      kinds                       what happens / what recovers it
========  ==========================  =============================================
disk      ``corrupt``                 a spill-segment read hands back flipped
                                      bytes; the CRC check catches it and the
                                      task attempt is retried
          ``torn``                    a spill write is cut short (the writing
                                      task dies mid-write); the attempt retries
                                      with a fresh disk
dfs       ``corrupt``                 a datanode serves a corrupt block replica;
                                      digest verification catches it and the
                                      client fails over to another replica
worker    ``kill``                    a worker process dies abruptly
                                      (``os._exit``) mid-task; the executor
                                      reschedules the lost attempt on survivors
          ``hang``                    a worker stalls indefinitely; the
                                      executor's task timeout reaps it
          ``stall``                   a worker pauses ``delay_seconds`` then
                                      continues (a straggler, not a failure)
shuffle   ``refuse`` ``drop``         a shuffle server refuses, drops, cuts
          ``truncate`` ``delay``      short or delays a selected segment
                                      fetch; the reduce-side fetcher's retry
                                      loop recovers
master    ``heartbeat_drop``          the cluster master silently discards a
                                      selected worker's pings; membership marks
                                      the worker dead and its attempts are
                                      rescheduled on survivors
========  ==========================  =============================================

Spec grammar
------------
``site.kind:fraction[:attempts]``, multiple rules joined with ``;``::

    worker.kill:0.5;disk.corrupt:0.3:1

*fraction* is the share of candidate tokens (tasks, spill files, block
replicas, fetches) the rule selects — selection is a stable hash of
``(seed, site, kind, token)``, so the same plan always hurts the same
victims.  *attempts* (default 1) bounds how many task attempts (or
replica reads, or fetch requests) are faulted, so bounded retries
deterministically converge; raise it past the retry budget to force a
clean exhaustion.

Configure with the ``repro.faults.spec`` / ``repro.faults.seed`` conf
keys, the repeatable ``--fault`` CLI flag, or the ``REPRO_FAULT``
environment variable (which overrides the conf, handy for injecting
faults under an unmodified invocation).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

from ..config import JobConf, Keys
from ..errors import ConfigError

FAULT_SITES = ("disk", "dfs", "worker", "shuffle", "master")

SITE_KINDS: dict[str, tuple[str, ...]] = {
    "disk": ("corrupt", "torn"),
    "dfs": ("corrupt",),
    "worker": ("kill", "hang", "stall"),
    "shuffle": ("refuse", "drop", "truncate", "delay"),
    # Tokens are worker ids, not task ids: the drop keeps hitting the
    # same daemons.  attempts defaults to 1 (drop a single ping, which a
    # healthy membership sweep shrugs off); raise it past the dead-miss
    # threshold (e.g. master.heartbeat_drop:0.5:999) to kill workers.
    "master": ("heartbeat_drop",),
}

ENV_OVERRIDE = "REPRO_FAULT"


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: hurt *fraction* of one site's tokens, *kind*-ly."""

    site: str
    kind: str
    fraction: float
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITE_KINDS:
            raise ConfigError(
                f"unknown fault site {self.site!r}; choose one of {FAULT_SITES}"
            )
        if self.kind not in SITE_KINDS[self.site]:
            raise ConfigError(
                f"fault site {self.site!r} has no kind {self.kind!r}; "
                f"choose one of {SITE_KINDS[self.site]}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(f"fault fraction {self.fraction!r} must lie in [0, 1]")
        if self.attempts < 1:
            raise ConfigError(f"fault attempts {self.attempts!r} must be >= 1")

    def selects(self, seed: int, token: str) -> bool:
        """Stable per-token selection: the same (seed, site, kind, token)
        always lands on the same side of the fraction threshold."""
        if self.fraction <= 0.0:
            return False
        digest = zlib.crc32(f"{seed}:{self.site}:{self.kind}:{token}".encode())
        return (digest % 1_000_000) < self.fraction * 1_000_000

    def spec(self) -> str:
        return f"{self.site}.{self.kind}:{self.fraction}:{self.attempts}"


def parse_fault_spec(spec: str) -> tuple[FaultRule, ...]:
    """Parse ``site.kind:fraction[:attempts][;...]`` into rules."""
    rules: list[FaultRule] = []
    for chunk in spec.replace(",", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3) or "." not in parts[0]:
            raise ConfigError(
                f"fault rule {chunk!r} must look like site.kind:fraction[:attempts]"
            )
        site, _, kind = parts[0].partition(".")
        try:
            fraction = float(parts[1])
            attempts = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise ConfigError(f"fault rule {chunk!r} is malformed: {exc}") from exc
        rules.append(FaultRule(site=site, kind=kind, fraction=fraction, attempts=attempts))
    return tuple(rules)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules covering any number of sites."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 1234
    delay_seconds: float = 0.05

    @property
    def enabled(self) -> bool:
        return any(rule.fraction > 0.0 for rule in self.rules)

    def __bool__(self) -> bool:
        return self.enabled

    def rules_for(self, site: str, kind: str | None = None) -> tuple[FaultRule, ...]:
        return tuple(
            rule for rule in self.rules
            if rule.site == site and (kind is None or rule.kind == kind)
        )

    def rule(self, site: str, kind: str | None = None) -> FaultRule | None:
        """The first matching rule (plans rarely repeat a site+kind)."""
        matches = self.rules_for(site, kind)
        return matches[0] if matches else None

    def spec(self) -> str:
        return ";".join(rule.spec() for rule in self.rules)

    @classmethod
    def parse(
        cls, spec: str, seed: int = 1234, delay_seconds: float = 0.05
    ) -> "FaultPlan":
        return cls(rules=parse_fault_spec(spec), seed=seed, delay_seconds=delay_seconds)

    @classmethod
    def from_conf(cls, conf: JobConf) -> "FaultPlan":
        """Build the plan from ``repro.faults.*`` conf keys, with the
        ``REPRO_FAULT`` environment variable taking precedence when set."""
        spec = os.environ.get(ENV_OVERRIDE, "").strip() or conf.get_str(Keys.FAULTS_SPEC)
        return cls.parse(
            spec,
            seed=conf.get_int(Keys.FAULTS_SEED),
            delay_seconds=conf.get_float(Keys.FAULTS_DELAY),
        )
