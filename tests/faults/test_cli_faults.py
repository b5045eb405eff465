"""The --fault CLI surface on ``repro run``."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestRunFault:
    def test_survivable_faults_report_and_exit_zero(self, capsys) -> None:
        code = main(
            [
                "run", "wordcount", "--scale", "0.02", "--backend", "cluster",
                "--workers", "3",
                "--fault", "worker.kill:0.5", "--fault", "disk.corrupt:0.5",
                "--fault-seed", "1234",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failures survived" in out
        assert "worker crash" in out
        assert "tasks that needed retries" in out

    def test_fault_free_run_reports_quietly(self, capsys) -> None:
        code = main(
            ["run", "wordcount", "--scale", "0.02", "--fault", "worker.kill:0.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failures: none" in out

    def test_malformed_fault_spec_is_a_usage_error(self) -> None:
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="fault"):
            main(["run", "wordcount", "--scale", "0.02", "--fault", "bogus"])

