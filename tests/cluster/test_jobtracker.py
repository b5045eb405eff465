"""Integration tests for the cluster-level job runner."""

import os
import subprocess
import sys

import pytest

from repro.cluster.jobtracker import ClusterJobRunner
from repro.cluster.specs import ClusterSpec, NodeSpec, ec2_cluster, local_cluster
from repro.config import Keys
from repro.engine.runner import LocalJobRunner
from repro.experiments.common import build_app


@pytest.fixture(scope="module")
def wc_app():
    return build_app(
        "wordcount", "baseline", scale=0.03,
        extra_conf={Keys.NUM_REDUCERS: 4}, num_splits=6,
    )


@pytest.fixture(scope="module")
def wc_result(wc_app):
    return ClusterJobRunner(local_cluster()).run(wc_app)


class TestClusterCorrectness:
    def test_output_matches_oracle(self, wc_app, wc_result):
        out = {
            k.value: v.value
            for r in wc_result.reduce_results
            for k, v in r.output
        }
        assert out == wc_app.oracle()

    def test_output_matches_local_runner(self, wc_app, wc_result):
        local = LocalJobRunner().run(wc_app.job)
        cluster_out = sorted(
            (k.to_bytes(), v.to_bytes())
            for r in wc_result.reduce_results
            for k, v in r.output
        )
        local_out = sorted(
            (k.to_bytes(), v.to_bytes()) for k, v in local.output_pairs()
        )
        assert cluster_out == local_out


class TestClusterTiming:
    def test_phases_ordered(self, wc_result):
        assert 0 < wc_result.map_phase_seconds <= wc_result.runtime_seconds
        assert wc_result.reduce_phase_seconds >= 0
        for p in wc_result.reduce_placements:
            assert p.start >= wc_result.map_phase_seconds - 1e-9

    def test_placements_respect_slots(self, wc_result):
        cluster = local_cluster()
        events = []
        for p in wc_result.map_placements:
            events.append((p.start, 1, p.host))
            events.append((p.end, -1, p.host))
        events.sort()
        running: dict[str, int] = {}
        for _, delta, host in events:
            running[host] = running.get(host, 0) + delta
            assert running[host] <= cluster.node(host).map_slots

    def test_locality_mostly_achieved(self, wc_result):
        assert wc_result.data_local_fraction >= 0.5

    def test_deterministic(self, wc_app):
        a = ClusterJobRunner(local_cluster()).run(wc_app)
        b = ClusterJobRunner(local_cluster()).run(wc_app)
        assert a.runtime_seconds == pytest.approx(b.runtime_seconds)


class TestClusterScaling:
    def test_more_nodes_faster(self):
        app = build_app(
            "wordcount", "baseline", scale=0.03,
            extra_conf={Keys.NUM_REDUCERS: 2}, num_splits=8,
        )
        small = ClusterSpec(
            "small", tuple(NodeSpec(host=f"n{i}") for i in range(2))
        )
        big = ClusterSpec(
            "big", tuple(NodeSpec(host=f"n{i}") for i in range(8))
        )
        t_small = ClusterJobRunner(small).run(app).runtime_seconds
        t_big = ClusterJobRunner(big).run(app).runtime_seconds
        assert t_big < t_small

    def test_presets_shapes(self):
        local, ec2 = local_cluster(), ec2_cluster()
        assert len(local.nodes) == 6
        assert local.total_map_slots == 12
        assert local.total_reduce_slots == 12
        assert len(ec2.nodes) == 20
        # EC2's defining property here: fabric slower relative to compute.
        assert (
            ec2.network.bandwidth_per_flow / ec2.nodes[0].speed
            < local.network.bandwidth_per_flow / local.nodes[0].speed
        )

    def test_counters_match_local_runner(self, wc_app, wc_result):
        local = LocalJobRunner().run(wc_app.job)
        from repro.engine.counters import Counter

        for counter in (Counter.MAP_INPUT_RECORDS, Counter.MAP_OUTPUT_RECORDS,
                        Counter.REDUCE_OUTPUT_RECORDS):
            assert wc_result.counters.get(counter) == local.counters.get(counter)


def test_importing_the_simulator_loads_no_runtime_or_multiprocessing():
    # Every benchmark run imports the jobtracker (repro.analysis ->
    # gantt), so it must not drag in the real runtime, whose package
    # loads the master and, through it, multiprocessing.
    script = "\n".join([
        "import sys",
        "import repro.cluster.jobtracker",
        "loaded = [m for m in sys.modules",
        "          if m.startswith('repro.cluster.runtime') or m == 'multiprocessing']",
        "assert not loaded, loaded",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
