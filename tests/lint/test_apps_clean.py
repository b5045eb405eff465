"""Every registered benchmark application must lint clean.

This is the Manimal promise in reverse: the paper's apps were written
to the engine's contracts, so the analyzer must prove them safe —
zero findings, and a `verified` fold verdict wherever a combiner
exists.  A failure here means either an app regressed or a rule got
too eager (both are bugs).
"""

from __future__ import annotations

import pytest

from repro.apps.registry import EXTRA_REGISTRY, REGISTRY, build_application
from repro.lint import analyze_app
from repro.lint.findings import FOLD_NO_COMBINER, FOLD_VERIFIED

ALL_APPS = sorted(REGISTRY) + sorted(EXTRA_REGISTRY)

#: Apps that declare no combiner (gating would disable freqbuf for them,
#: which is correct: there is nothing to eagerly combine with).
#: ``accesslogip`` is no-combiner *by design* — CI's fold-reducer smoke
#: runs it so every record reaches the reduce loop's proven int fold.
NO_COMBINER = {"accesslogjoin", "selection", "distributedsort", "accesslogip"}


@pytest.mark.parametrize("name", ALL_APPS)
def test_registered_app_lints_clean(name):
    report = analyze_app(build_application(name, scale=0.01))
    assert report.clean, (
        f"{name} has lint findings: "
        + "; ".join(f"{f.rule_id} at {f.anchor}: {f.message}" for f in report.findings)
    )


@pytest.mark.parametrize("name", ALL_APPS)
def test_fold_verdict(name):
    report = analyze_app(build_application(name, scale=0.01))
    expected = FOLD_NO_COMBINER if name in NO_COMBINER else FOLD_VERIFIED
    assert report.fold_like == expected


def test_findings_carry_real_anchors_even_when_clean():
    # The subject is the app name, so reports are attributable.
    report = analyze_app(build_application("wordcount", scale=0.01))
    assert report.subject == "wordcount"
    assert report.gating == []
