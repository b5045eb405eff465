"""The worker daemon: one forked process serving one cluster node.

``workerd_main`` is the ``Process`` target the master forks, one per
configured worker (plus replacements).  Startup order matters:

1. :func:`~repro.faults.runtime.mark_worker_process` — this *is* a real
   worker process, so inherited ``worker.kill``/``hang``/``stall``
   rules arm here and nowhere else;
2. materialize the job input from the staged DFS through a client
   pinned to this worker's host label, preferring the local replica
   (remote blocks and digest failovers are tallied and reported in
   HELLO) — the daemon then reads splits from its own copy of the
   bytes, never the master's memory;
3. start this node's :class:`~repro.shuffle.server.ShuffleServer` (net
   mode) and point the inherited worker context at it, so
   :func:`~repro.exec.workers.task_entry` registers map output with
   *this worker's* server and reducers anywhere fetch it over TCP, and
   give the context this node's empty per-node state;
4. HELLO on the long-lived task channel, then serve TASK frames until
   BYE/EOF, with a daemon ping thread heartbeating the master from the
   side — a worker stuck in a long task attempt still proves liveness,
   so only the task timeout (not the membership sweep) judges slow
   tasks.

Each TASK frame runs through :func:`~repro.exec.workers.run_entry`
(the shared attempt loop, every error an outcome tuple) and its result
goes back through :func:`~repro.exec.workers.send_outcome` (an outcome
that will not pickle degrades to an error outcome).
"""

from __future__ import annotations

import os
import threading
import time

from ...engine.inputformat import TextInput
from ...exec import workers
from ...exec.base import start_shuffle_server
from .protocol import (
    OP_BYE,
    OP_HELLO,
    OP_PING,
    OP_RESULT,
    OP_STATS,
    OP_TASK,
    connect,
    recv_msg,
    send_msg,
)


def _materialize_input(ctx: workers.WorkerContext, host: str) -> dict:
    """Replace the inherited input bytes with a DFS read local to this
    worker (CoW: only this process's copy changes).  The bytes are
    identical by construction — digest-verified block reads with
    replica failover — so split boundaries and record contents match
    the master's exactly."""
    if ctx.dfs is None or not isinstance(ctx.job.input_format, TextInput):
        return {}
    client = ctx.dfs.client(host)
    ctx.job.input_format.data = client.read_file(ctx.job.input_format.path)
    return {
        "dfs_local_bytes": client.local_bytes_read,
        "dfs_remote_bytes": client.remote_bytes_read,
        "dfs_failovers": client.read_failovers,
    }


def _heartbeat_loop(
    master_address: tuple[str, int],
    worker_id: str,
    interval: float,
    stop: threading.Event,
) -> None:
    """Ping the master every *interval* seconds on a fresh connection.
    A BYE answer means this worker was declared dead while its attempts
    were rescheduled elsewhere: exit immediately rather than double-run
    them.  A vanished master means the job is over; exit too."""
    seq = 0
    failures = 0
    while not stop.wait(interval):
        seq += 1
        try:
            sock = connect(master_address, timeout=5.0)
            try:
                send_msg(sock, OP_PING, {"worker_id": worker_id, "seq": seq})
                opcode, _ = recv_msg(sock)
            finally:
                sock.close()
        except (ConnectionError, OSError):
            failures += 1
            if failures >= 3:
                os._exit(0)
            continue
        failures = 0
        if opcode == OP_BYE:
            os._exit(0)


def workerd_main(
    worker_id: str,
    host: str,
    master_address: tuple[str, int],
    ctx_id: int,
    heartbeat_interval: float,
) -> None:
    from ...faults.runtime import mark_worker_process

    mark_worker_process()
    ctx = workers.worker_context(ctx_id)
    dfs_stats = _materialize_input(ctx, host)
    server = start_shuffle_server(ctx.job, host)
    # This daemon's private context view (fork CoW): the shared map/reduce
    # entry points now attribute work to this node, share this node's
    # state across its map tasks (a replacement daemon starts empty) and
    # register map output with this node's shuffle server.
    ctx.host = host
    ctx.shared_state = {}
    ctx.shuffle_server = server

    conn = connect(master_address)
    # The task channel is idle between dispatches; the connect timeout
    # must not outlive the dial or a quiet minute reads as EOF.
    conn.settimeout(None)
    send_msg(
        conn,
        OP_HELLO,
        {
            "worker_id": worker_id,
            "host": host,
            "pid": os.getpid(),
            "shuffle_address": server.address if server is not None else None,
            **dfs_stats,
        },
    )
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(master_address, worker_id, heartbeat_interval, stop),
        daemon=True,
        name=f"heartbeat-{worker_id}",
    ).start()

    try:
        while True:
            try:
                opcode, message = recv_msg(conn)
            except (ConnectionError, OSError):
                break
            if opcode == OP_BYE:
                if server is not None:
                    send_msg(conn, OP_STATS, server.snapshot())
                send_msg(conn, OP_BYE)
                break
            if opcode != OP_TASK:
                continue
            started = time.monotonic()
            outcome = workers.run_entry(
                message["task"], message["fetch_results"], ctx_id
            )
            reply = {"tag": message["tag"], "seconds": time.monotonic() - started}
            workers.send_outcome(
                lambda outcome: send_msg(conn, OP_RESULT, {**reply, "outcome": outcome}),
                outcome,
            )
    finally:
        stop.set()
        if server is not None:
            server.stop()
        try:
            conn.close()
        except OSError:
            pass
