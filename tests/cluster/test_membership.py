"""Units for the runtime's building blocks: the membership state
machine, locality placement, the shared speculation policy, and the
wire protocol — all exercised without forking a single daemon."""

from __future__ import annotations

import socket

import pytest

from repro.cluster.policy import SpeculationPolicy
from repro.cluster.runtime.membership import Membership, WorkerState
from repro.cluster.placement import choose_task, stage_locality
from repro.cluster.runtime.protocol import (
    MAGIC,
    OP_HELLO,
    OP_TASK,
    ProtocolError,
    recv_msg,
    send_msg,
)
from repro.config import JobConf, Keys

from ..conftest import make_wordcount_job

INTERVAL = 0.1


def make_membership() -> Membership:
    return Membership(heartbeat_interval=INTERVAL, suspect_misses=3, dead_misses=8)


# ----------------------------------------------------------------------
# membership state machine
# ----------------------------------------------------------------------
def test_register_goes_straight_to_alive() -> None:
    m = make_membership()
    record = m.register("w00", "node00", now=100.0, pid=42)
    assert record.state is WorkerState.ALIVE
    assert record.schedulable
    assert m.get("w00") is record
    with pytest.raises(ValueError, match="already registered"):
        m.register("w00", "node00", now=100.0)


def test_silence_ladder_alive_suspect_dead() -> None:
    """The full ladder: register -> alive -> suspect -> dead, driven
    purely by silence, each transition reported exactly once."""
    m = make_membership()
    m.register("w00", "node00", now=100.0)

    assert m.sweep(100.0 + 2 * INTERVAL) == []  # within budget: still ALIVE

    [t] = m.sweep(100.0 + 4 * INTERVAL)  # past suspect_misses
    assert (t.old, t.new) == (WorkerState.ALIVE, WorkerState.SUSPECT)
    assert not t.record.schedulable and t.record.alive
    assert m.sweep(100.0 + 5 * INTERVAL) == []  # no re-report

    [t] = m.sweep(100.0 + 9 * INTERVAL)  # past dead_misses
    assert (t.old, t.new) == (WorkerState.SUSPECT, WorkerState.DEAD)
    assert not t.record.alive
    assert m.sweep(100.0 + 20 * INTERVAL) == []  # DEAD is terminal


def test_heartbeat_revives_suspect_but_not_dead() -> None:
    m = make_membership()
    m.register("w00", "node00", now=100.0)
    m.sweep(100.0 + 4 * INTERVAL)
    assert m.get("w00").state is WorkerState.SUSPECT

    assert m.heartbeat("w00", now=100.0 + 4 * INTERVAL)
    assert m.get("w00").state is WorkerState.ALIVE

    m.sweep(200.0)  # long silence: dead
    assert m.get("w00").state is WorkerState.DEAD
    assert not m.heartbeat("w00", now=200.0)  # dead workers are told BYE
    assert not m.heartbeat("ghost", now=200.0)  # unknown workers too


def test_mark_dead_is_single_shot() -> None:
    """Channel-EOF death must reschedule exactly once even when the
    sweep races it: only the first declaration returns the record."""
    m = make_membership()
    m.register("w00", "node00", now=100.0)
    record = m.mark_dead("w00")
    assert record is not None and record.state is WorkerState.DEAD
    assert m.mark_dead("w00") is None
    assert m.mark_dead("ghost") is None


def test_accessors_filter_by_state() -> None:
    m = make_membership()
    m.register("w00", "node00", now=100.0)
    m.register("w01", "node01", now=100.0)
    m.sweep(100.0 + 4 * INTERVAL)  # both suspect
    m.heartbeat("w00", now=100.0 + 4 * INTERVAL)
    assert [r.worker_id for r in m.schedulable()] == ["w00"]
    assert {r.worker_id for r in m.alive()} == {"w00", "w01"}


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
class FakeTask:
    def __init__(self, key: str, preferred_hosts: tuple[str, ...]) -> None:
        self.key = key
        self.preferred_hosts = preferred_hosts


def test_choose_task_prefers_data_local_else_oldest() -> None:
    pending = [
        FakeTask("a", ("node01",)),
        FakeTask("b", ("node02",)),
        FakeTask("c", ("node01", "node00")),
    ]
    assert choose_task(pending, "node02") == 1  # first local match
    assert choose_task(pending, "node00") == 2
    assert choose_task(pending, "node09") == 0  # no local work: oldest


def test_stage_locality_aligns_splits_with_blocks(tiny_text) -> None:
    """Every engine split gets replica hints, replication-many hosts
    each, without the split boundaries changing."""
    job = make_wordcount_job(
        tiny_text, conf_overrides={Keys.DFS_REPLICATION: 2}, num_splits=3
    )
    hosts = ["node00", "node01", "node02", "node03"]
    locality = stage_locality(job, hosts)
    splits = job.input_format.splits()
    assert locality.dfs is not None
    assert set(locality.hints) == set(range(len(splits)))
    for index in range(len(splits)):
        preferred = locality.preferred_hosts(index)
        assert preferred and set(preferred) <= set(hosts)
        assert locality.data_local(index, preferred[0])
        assert not locality.data_local(index, "not-a-node")
    # The staged bytes read back identical on any host.
    for host in hosts:
        assert locality.dfs.client(host).read_file(locality.path) == tiny_text


def test_stage_locality_skips_non_text_inputs() -> None:
    class OpaqueInput:
        pass

    job = make_wordcount_job(b"x y z")
    job.input_format = OpaqueInput()
    locality = stage_locality(job, ["node00"])
    assert locality.dfs is None
    assert locality.preferred_hosts(0) == ()


# ----------------------------------------------------------------------
# the shared speculation policy
# ----------------------------------------------------------------------
def test_policy_quorum_and_median() -> None:
    policy = SpeculationPolicy(quorum_fraction=0.5)
    assert policy.quorum_index(10) == 5
    assert policy.quorum_index(1) == 1  # at least one completion
    assert not policy.quorum_reached(4, 10)
    assert policy.quorum_reached(5, 10)
    assert policy.median_duration([3.0, 1.0, 2.0]) == 2.0
    assert policy.median_duration([]) == 0.0


def test_policy_straggler_thresholds() -> None:
    policy = SpeculationPolicy(slowdown_threshold=1.5, min_task_seconds=2.0)
    assert not policy.is_straggler(10.0, 0.0)  # no median yet: never
    assert not policy.is_straggler(1.4, 1.0)  # under the slowdown bar
    assert not policy.is_straggler(1.9, 1.0)  # over slowdown, under floor
    assert policy.is_straggler(2.1, 1.0)  # over both
    floorless = SpeculationPolicy(slowdown_threshold=1.5, min_task_seconds=0.0)
    assert floorless.is_straggler(1.6, 1.0)


def test_policy_backup_budget_and_enable_switch() -> None:
    policy = SpeculationPolicy(max_backups=2)
    assert policy.backup_allowed(0) and policy.backup_allowed(1)
    assert not policy.backup_allowed(2)
    assert not SpeculationPolicy(enabled=False).backup_allowed(0)


def test_policy_from_conf_reads_cluster_keys() -> None:
    conf = JobConf(
        {
            Keys.CLUSTER_SPECULATION: False,
            Keys.CLUSTER_SPEC_QUORUM: 0.25,
            Keys.CLUSTER_SPEC_SLOWDOWN: 2.0,
            Keys.CLUSTER_SPEC_MAX_BACKUPS: 1,
            Keys.CLUSTER_SPEC_MIN_SECONDS: 3.0,
        }
    )
    policy = SpeculationPolicy.from_conf(conf)
    assert policy == SpeculationPolicy(
        enabled=False,
        quorum_fraction=0.25,
        slowdown_threshold=2.0,
        max_backups=1,
        min_task_seconds=3.0,
    )


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
def test_protocol_round_trips_frames() -> None:
    left, right = socket.socketpair()
    try:
        send_msg(left, OP_HELLO, {"worker_id": "w00", "host": "node00"})
        send_msg(left, OP_TASK, {"key": "wc.m0000", "payload": 0})
        opcode, message = recv_msg(right)
        assert (opcode, message["worker_id"]) == (OP_HELLO, "w00")
        opcode, message = recv_msg(right)
        assert (opcode, message["key"]) == (OP_TASK, "wc.m0000")
    finally:
        left.close()
        right.close()


def test_protocol_rejects_bad_magic_and_eof() -> None:
    left, right = socket.socketpair()
    try:
        left.sendall(b"XX" + bytes((OP_HELLO,)) + (0).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="bad frame magic"):
            recv_msg(right)
        left.sendall(MAGIC)  # half a header, then hang up
        left.close()
        with pytest.raises(ConnectionError, match="closed .* short"):
            recv_msg(right)
    finally:
        right.close()
