"""Finding, severity, and report types for the static analyzer."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """How bad a finding is.

    ``ERROR`` findings mark jobs that would corrupt output or die
    mid-run under some supported configuration — ``repro.lint.mode =
    strict`` refuses them at submit time.  ``WARNING`` findings mark
    constructs that are safe today but violate the documented contracts
    (e.g. per-record state on ``self``); they gate optimizations but do
    not refuse the job.
    """

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR", in reports
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to real source."""

    rule_id: str
    severity: Severity
    file: str
    line: int
    message: str

    @property
    def anchor(self) -> str:
        return f"{self.file}:{self.line}"

    def row(self) -> list[str]:
        return [self.rule_id, str(self.severity), self.anchor, self.message]

    def as_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "file": self.file,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class GatingDecision:
    """One Manimal-style optimization verdict applied at submit time."""

    optimization: str  # e.g. "freqbuf"
    action: str  # e.g. "disabled"
    reason: str
    rule_ids: tuple[str, ...] = ()

    def describe(self) -> str:
        rules = f" [{', '.join(self.rule_ids)}]" if self.rule_ids else ""
        return f"{self.optimization} {self.action}: {self.reason}{rules}"

    def as_dict(self) -> dict:
        return {
            "optimization": self.optimization,
            "action": self.action,
            "reason": self.reason,
            "rule_ids": list(self.rule_ids),
        }


#: Fold-like verdicts for the combiner-algebra rule (``LintReport.fold_like``).
FOLD_VERIFIED = "verified"  # combiner analyzed, all algebra checks passed
FOLD_VIOLATED = "violated"  # combiner analyzed, at least one check failed
FOLD_UNVERIFIED = "unverified"  # combiner exists but could not be analyzed
FOLD_NO_COMBINER = "no-combiner"  # job declares no combiner at all


@dataclass
class LintReport:
    """The analyzer's verdict on one job (or on the engine itself)."""

    subject: str
    findings: list[Finding] = field(default_factory=list)
    gating: list[GatingDecision] = field(default_factory=list)
    #: Analyzer limitations worth surfacing (unresolvable sources, Fn
    #: adapters wrapping plain functions, ...) — not violations.
    notes: list[str] = field(default_factory=list)
    #: Combiner-algebra verdict; drives the freqbuf gating decision.
    #: ``None`` for reports with no job (the engine self-lint).
    fold_like: str | None = None

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def rule_ids(self) -> set[str]:
        return {f.rule_id for f in self.findings}

    def findings_for(self, rule_prefix: str) -> list[Finding]:
        return [f for f in self.findings if f.rule_id.startswith(rule_prefix)]

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    def sort(self) -> None:
        """Stable report order: file, then line, then rule id."""
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule_id))

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "fold_like": self.fold_like,
            "findings": [f.as_dict() for f in self.findings],
            "gating": [g.as_dict() for g in self.gating],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)
