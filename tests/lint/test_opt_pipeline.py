"""The static optimizer's CLI surface: ``repro analyze``."""

from __future__ import annotations

import json

from repro.cli import main


def test_analyze_all_is_green_and_json_parses(capsys):
    assert main(["analyze", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    subjects = {entry["subject"] for entry in payload}
    assert {"wordcount", "accesslogip"} <= subjects
    # Every entry carries its advise-mode plan.
    for entry in payload:
        assert entry["plan"]["decisions"]


def test_analyze_app_emits_a_plan(capsys):
    assert main(["analyze", "wordcount"]) == 0
    out = capsys.readouterr().out
    assert "optimization plan (advise): wordcount" in out
    assert "select-pushdown" in out


def test_analyze_fixture_fails_loudly(capsys):
    assert main(["analyze", "unsafeopt"]) == 1
    out = capsys.readouterr().out
    assert "rejected" in out
