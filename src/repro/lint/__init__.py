"""Static job-safety analysis (the Manimal direction).

The engine's optimizations are only sound under properties of *user*
code that nothing used to check: frequency-buffering assumes the
combiner is an associative, commutative, key-preserving fold (the
engine may apply it zero, one, or many times per key); task retries
and the cluster backend assume ``map()``/``reduce()`` are pure and
deterministic; the cluster backend's fork+pickle result path assumes
emitted values are picklable; the declared map-output writable classes
must match what the job actually emits.  Jahani & Cafarella's Manimal
showed these properties can be established by static analysis of
MapReduce programs and used to enable optimizations safely — this
package does the same for ``repro``:

* :func:`analyze_job` / :func:`analyze_app` run the rule catalog
  (:mod:`repro.lint.rules`) over a job's user classes and return a
  :class:`~repro.lint.findings.LintReport` of
  :class:`~repro.lint.findings.Finding` rows with real ``file:line``
  anchors;
* :func:`analyze_engine` self-lints the engine classes that several
  threads touch at once (the cluster master's ``Membership``) against
  their documented thread contracts
  (:mod:`repro.lint.rules.concurrency`);
* :func:`gate_job` applies the Manimal-style verdict at submit time:
  when the combiner-algebra rule cannot verify fold-like-ness, a job
  that asked for frequency-buffering runs with it forced off, and the
  decision is recorded in the report.

``repro.lint.mode`` (``off`` | ``warn`` | ``strict``) controls what job
submission does with the verdicts (:mod:`repro.engine.runner`):
``warn`` analyzes and gates, ``strict`` additionally refuses jobs with
error-severity findings by raising :class:`~repro.errors.LintError`.
"""

from __future__ import annotations

import importlib

#: Public name -> the submodule that defines it.  Every name loads on
#: first use (PEP 562): every reduce task (and every combiner) imports
#: the leaf :mod:`repro.lint.proofs`, and that must not pull in the rule
#: catalog.
_LAZY = {
    "analyze_app": "engine",
    "analyze_engine": "engine",
    "analyze_job": "engine",
    "gate_job": "engine",
    "Finding": "findings",
    "GatingDecision": "findings",
    "LintReport": "findings",
    "Severity": "findings",
}

__all__ = [
    "Finding",
    "GatingDecision",
    "LintReport",
    "Severity",
    "analyze_app",
    "analyze_engine",
    "analyze_job",
    "gate_job",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
