"""Tests for speculative execution / straggler mitigation."""

import pytest

from repro.cluster.jobtracker import ClusterJobRunner
from repro.cluster.scheduler import Placement, TaskRequest
from repro.cluster.speculation import (
    SpeculationPolicy,
    apply_speculation,
    heterogeneous_cluster,
)
from repro.cluster.specs import ClusterSpec, NodeSpec, local_cluster
from repro.config import Keys
from repro.experiments.common import build_app


def fast_cluster(nodes=3, slots=2) -> ClusterSpec:
    return ClusterSpec(
        "c", tuple(NodeSpec(host=f"n{i}", speed=1e6, map_slots=slots) for i in range(nodes))
    )


def make_placements(durations: dict[str, float], host: str = "n0") -> list[Placement]:
    placements = []
    t = 0.0
    for task_id, duration in durations.items():
        placements.append(Placement(task_id, host, 0.0, duration, True))
    return placements


class TestApplySpeculation:
    def test_straggler_rescued(self):
        durations = {f"t{i}": 1.0 for i in range(6)}
        durations["slow"] = 10.0
        placements = make_placements(durations)
        tasks = {tid: TaskRequest(tid) for tid in durations}
        outcome = apply_speculation(
            fast_cluster(),
            placements,
            tasks,
            lambda task, host: 1.0,  # the backup runs at normal speed
        )
        assert outcome.backups_launched == 1
        assert outcome.backups_won == 1
        assert outcome.wave_end < 10.0

    def test_no_speculation_when_disabled(self):
        durations = {"a": 1.0, "slow": 50.0}
        placements = make_placements(durations)
        outcome = apply_speculation(
            fast_cluster(), placements,
            {tid: TaskRequest(tid) for tid in durations},
            lambda t, h: 1.0,
            SpeculationPolicy(enabled=False),
        )
        assert outcome.backups_launched == 0
        assert outcome.wave_end == 50.0

    def test_backup_kept_only_if_faster(self):
        durations = {f"t{i}": 1.0 for i in range(5)}
        durations["slow"] = 3.0
        placements = make_placements(durations)
        outcome = apply_speculation(
            fast_cluster(), placements,
            {tid: TaskRequest(tid) for tid in durations},
            lambda t, h: 100.0,  # backups are terrible: never win
        )
        assert outcome.backups_won == 0
        assert outcome.wave_end == 3.0

    def test_no_stragglers_no_backups(self):
        durations = {f"t{i}": 1.0 for i in range(6)}
        outcome = apply_speculation(
            fast_cluster(), make_placements(durations),
            {tid: TaskRequest(tid) for tid in durations},
            lambda t, h: 1.0,
        )
        assert outcome.backups_launched == 0

    def test_max_backups_respected(self):
        durations = {f"t{i}": 1.0 for i in range(4)}
        for i in range(8):
            durations[f"slow{i}"] = 40.0
        outcome = apply_speculation(
            fast_cluster(), make_placements(durations),
            {tid: TaskRequest(tid) for tid in durations},
            lambda t, h: 1.0,
            SpeculationPolicy(max_backups=2),
        )
        assert outcome.backups_launched == 2


class TestHeterogeneousCluster:
    def test_spec_shape(self):
        cluster = heterogeneous_cluster(slow_factor=4.0, slow_nodes=2)
        speeds = sorted(n.speed for n in cluster.nodes)
        assert speeds[0] * 4.0 == pytest.approx(speeds[-1])
        assert sum(1 for n in cluster.nodes if n.speed == speeds[0]) == 2

    def test_speculation_helps_on_stragglers(self):
        app = build_app(
            "wordcount", "baseline", scale=0.04,
            extra_conf={Keys.NUM_REDUCERS: 2}, num_splits=12,
        )
        cluster = heterogeneous_cluster(slow_factor=5.0)
        plain = ClusterJobRunner(cluster).run(app)
        speculative_runner = ClusterJobRunner(cluster, speculation=SpeculationPolicy())
        speculative = speculative_runner.run(app)
        # Some map task lands on the slow node; a backup on a fast node
        # must shorten the map phase.
        assert speculative_runner.map_backups_launched > 0
        assert speculative.map_phase_seconds < plain.map_phase_seconds

    def test_output_identical_with_speculation(self):
        app = build_app(
            "wordcount", "baseline", scale=0.03,
            extra_conf={Keys.NUM_REDUCERS: 2}, num_splits=8,
        )
        cluster = heterogeneous_cluster()
        plain = ClusterJobRunner(cluster).run(app)
        speculative = ClusterJobRunner(cluster, speculation=SpeculationPolicy()).run(app)
        normalize = lambda res: sorted(
            (k.to_bytes(), v.to_bytes())
            for r in res.reduce_results
            for k, v in r.output
        )
        assert normalize(plain) == normalize(speculative)

    def test_homogeneous_cluster_unaffected(self):
        app = build_app(
            "wordcount", "baseline", scale=0.03,
            extra_conf={Keys.NUM_REDUCERS: 2}, num_splits=8,
        )
        cluster = local_cluster()
        plain = ClusterJobRunner(cluster).run(app)
        runner = ClusterJobRunner(cluster, speculation=SpeculationPolicy())
        speculative = runner.run(app)
        # Identical nodes: backups can never win; runtime unchanged.
        assert runner.map_backups_won == 0
        assert speculative.runtime_seconds == pytest.approx(plain.runtime_seconds)
