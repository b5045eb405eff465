"""Micro-scale smoke tests of the cluster-level experiments (the full
versions' shape claims are `runall`'s, gated by CI's "Shape claims")."""

import pytest

from repro.experiments import fig10_syntext, table3_local, table4_ec2
from repro.experiments.common import OPTIMIZATION_CONFIGS


class TestTable3Micro:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_local.run(
            scale=0.04, apps=("wordcount", "accesslogsum"), num_splits=6
        )

    def test_all_cells_positive(self, result):
        for app, by_config in result.runtimes.items():
            for config, runtime in by_config.items():
                assert runtime > 0, (app, config)

    def test_combined_close_to_or_below_baseline(self, result):
        for app in result.runtimes:
            assert result.pct(app, "combined") < 115.0

    def test_render_contains_paper_column(self, result):
        assert "paper %" in result.render()

    def test_results_carry_cluster_details(self, result):
        run = result.results["wordcount"]["baseline"]
        assert run.cluster_name == "local"
        assert run.map_placements


class TestTable4Micro:
    def test_runs_and_renders(self):
        result = table4_ec2.run(local_scale=0.04, ec2_scale=0.06, num_splits=12)
        text = result.render()
        assert "Table IV" in text and "wordcount" in text
        cells = [
            tuple(line.split()[:2]) for line in text.splitlines()
            if line.split()[:1] and line.split()[0] in table4_ec2.EC2_APPS
        ]
        assert cells == [
            (app, config)
            for app in table4_ec2.EC2_APPS for config in OPTIMIZATION_CONFIGS
        ]
        for app, by_config in result.runtimes.items():
            assert by_config["baseline"] > 0, app


class TestFig10Micro:
    def test_grid_shape(self):
        result = fig10_syntext.run(
            cpu_levels=(1.0, 8.0), storage_levels=(0.0, 1.0), scale=0.02
        )
        assert len(result.savings_pct) == 2
        assert len(result.savings_pct[0]) == 2
        assert "storage" in result.render()

    def test_cpu_axis_decreases_savings(self):
        result = fig10_syntext.run(
            cpu_levels=(1.0, 32.0), storage_levels=(0.0,), scale=0.02
        )
        low_cpu, high_cpu = result.savings_pct[0]
        assert low_cpu > high_cpu
