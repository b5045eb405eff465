"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main


class TestHelp:
    def test_usage_examples_keep_their_lines(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        printed = [
            line.strip() for line in out.splitlines() if "python -m repro.cli" in line
        ]
        documented = [
            line.strip() for line in cli.__doc__.splitlines()
            if line.strip().startswith("python -m repro.cli")
        ]
        # One example per line, exactly as the module docstring writes
        # them (the default formatter reflows them into one paragraph).
        assert printed == documented
        assert all(line.count("python -m repro.cli") == 1 for line in printed)

        commands = set(re.search(r"\{([a-z,]+)\}", out).group(1).split(","))
        assert not commands & {"serve", "submit", "jobs", "pipeline", "stream"}
        assert {line.split()[3] for line in printed} <= commands


class TestList:
    def test_lists_apps_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "wordcount" in out
        assert "table3" in out

    def test_lists_fixtures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lint fixtures" in out
        assert "unsafewordcount" in out

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_pipe_exits_without_traceback(self, unbuffered):
        """`repro list | head` with the reader gone: the reader's end is
        closed before the first line, so the failing write happens on
        every run (a reader that closes after one line races the child,
        which usually writes its whole listing first).  Unbuffered, the
        write fails inside ``print``; buffered, at the final flush."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr.decode()
        assert "BrokenPipeError" not in proc.stderr.decode()


class TestRun:
    def test_run_baseline(self, capsys):
        assert main(["run", "wordcount", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "output records" in out
        assert "framework" in out

    def test_run_combined_hash_compressed(self, capsys):
        code = main([
            "run", "wordcount", "--config", "combined", "--scale", "0.02",
            "--compression", "zlib",
        ])
        assert code == 0
        assert "wordcount" in capsys.readouterr().out

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["run", "nosuchapp"])

    def test_rejects_lint_fixture_as_app(self):
        # unsafewordcount is reachable by `repro lint`, never by `repro run`.
        with pytest.raises(SystemExit):
            main(["run", "unsafewordcount"])

    def test_run_prints_job_stamp(self, capsys):
        assert main(["run", "wordcount", "--scale", "0.02"]) == 0
        assert "output sha256:" in capsys.readouterr().out

    def test_run_json_record(self, capsys):
        assert main(["run", "wordcount", "--scale", "0.02", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["app"] == "wordcount"
        assert record["records"] > 0
        assert len(record["output_digest"]) == 64
        assert record["task_attempts"] >= 1
        assert record["counters"]["map_input_records"] > 0


class TestCluster:
    def test_cluster_run(self, capsys):
        code = main([
            "cluster", "wordcount", "--scale", "0.02", "--splits", "6",
        ])
        assert code == 0
        assert "local" in capsys.readouterr().out

    def test_gantt_and_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main([
            "cluster", "wordcount", "--scale", "0.02", "--splits", "6",
            "--gantt", "--trace", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "map barrier" in out
        trace = json.loads(trace_path.read_text())
        assert trace["job"] == "wordcount"


class TestExperiment:
    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_fig3_runs(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "alpha" in capsys.readouterr().out
