"""The thread-contract self-lint: clean today, and able to catch the
regressions it exists for (verified against deliberately broken classes
checked under synthetic contracts)."""

from __future__ import annotations

from repro.lint import analyze_engine
from repro.lint.rules.concurrency import EngineConcurrencyRule, ThreadContract


def test_shipped_engine_contracts_hold():
    report = analyze_engine()
    assert report.clean, [f.message for f in report.findings]
    assert report.subject == "engine"
    # The contract under check — the cluster master's lock-guarded
    # membership table — is surfaced, so a silently-empty self-lint is
    # distinguishable from a passing one.
    assert any("Membership" in note for note in report.notes)
    checked = {c.cls.__name__ for c in EngineConcurrencyRule().contracts}
    assert checked == {"Membership"}


class LeakyWorker:
    """Support loop writes an attribute outside its documented set."""

    def __init__(self):
        self._done = False
        self._support_buf = []
        self.results = []

    def _support_loop(self):
        self._support_buf.append(1)  # allowed: documented shared write
        self.results.append(2)  # violation: undeclared shared write

    def collect(self, record):
        return len(self._support_buf)  # not a support method: unchecked

    def _join(self):
        self._done = True  # join method: exempt


LEAKY_CONTRACT = ThreadContract(
    cls=LeakyWorker,
    support_methods=("_support_loop",),
    shared_writes=("_done", "_support_buf"),
    join_methods=("__init__", "_join"),
)


def test_support_side_and_map_side_violations_detected():
    rule = EngineConcurrencyRule(contracts=(LEAKY_CONTRACT,))
    findings = list(rule.check_engine())
    assert len(findings) == 1
    assert findings[0].rule_id == "engine-thread-safety"
    assert "writes self.results" in findings[0].message
    # Anchored to this test file, at real lines.
    assert all(f.file.endswith("test_engine_selfcheck.py") for f in findings)
    assert all(f.line > 0 for f in findings)


def test_join_methods_are_exempt():
    rule = EngineConcurrencyRule(contracts=(LEAKY_CONTRACT,))
    flagged_methods = {f.message.split("(")[0] for f in rule.check_engine()}
    assert "LeakyWorker._join" not in flagged_methods
    assert "LeakyWorker.__init__" not in flagged_methods


def test_contract_naming_a_missing_method_is_an_error():
    """A contract that outlived a rename stops checking anything; the
    rule must say so instead of passing vacuously."""
    stale = ThreadContract(
        cls=LeakyWorker,
        support_methods=("_support_loop", "_renamed_away"),
        shared_writes=("_done", "_support_buf", "results"),
        join_methods=("__init__", "_join", "collect", "_gone_join"),
    )
    findings = list(EngineConcurrencyRule(contracts=(stale,)).check_engine())
    assert [f.severity.name for f in findings] == ["ERROR", "ERROR"]
    messages = " ".join(f.message for f in findings)
    assert "_renamed_away()" in messages and "_gone_join()" in messages
    assert all(f.file.endswith("test_engine_selfcheck.py") and f.line > 0 for f in findings)
