"""The cluster master: scheduling loop, and the ``cluster`` transport.

The job plan is :meth:`repro.exec.base.Executor.run`'s; the master runs
one *phase* of it at a time (:meth:`Master.run_phase`) over worker
daemons (:mod:`repro.cluster.runtime.workerd`) it forks itself.  One
thread — the executor's calling thread — runs the scheduling loop;
connection handler threads only feed it through a queue (plus the
thread-safe :class:`~repro.cluster.runtime.membership.Membership`), so
every counter, assignment, and outcome mutation is single-threaded.

Each ~20 ms tick the loop:

1. drains worker events (registrations, task results, channel EOFs);
2. sweeps membership — workers silent past the suspect threshold stop
   receiving work, past the dead threshold they are declared dead:
   their in-flight attempts are rescheduled on survivors under the
   shared ``repro.task.max.attempts`` budget
   (:func:`repro.exec.base.lose_attempt`), and (net shuffle) map
   outputs whose shuffle server died with the worker are re-executed —
   a repaired output replaces its entry of the phase's *fetch_results*
   in place — so pending reducers can still fetch every partition;
3. reaps assignments past ``repro.task.timeout.seconds`` by killing the
   worker (the death then flows through the path above);
4. dispatches pending tasks to idle ALIVE workers, preferring data-local
   placement (:func:`~repro.cluster.placement.choose_task`
   against the staged DFS's real block locations);
5. consults the shared :class:`~repro.cluster.policy.SpeculationPolicy`
   and launches backup attempts for stragglers on free workers — first
   finisher wins, the loser's eventual result is discarded
   (``SPECULATIVE_LAUNCHES`` / ``SPECULATIVE_WINS``).

Dead workers are replaced with fresh daemons under the same host label,
so locality hints and DFS local reads stay valid for the replacement; a
replacement is a new node, so its per-node state starts empty.
"""

from __future__ import annotations

import dataclasses
import queue
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ...config import JobConf, Keys
from ...engine.counters import Counter, Counters
from ...engine.job import JobSpec
from ...errors import ExecBackendError, ShuffleError
from ...exec import workers
from ...exec.base import Executor, Task, lose_attempt, note_attempts
from ...faults.runtime import drop_heartbeat
from ..placement import LocalityMap, choose_task, stage_locality
from ..policy import SpeculationPolicy
from .membership import Membership, WorkerRecord, WorkerState
from .protocol import (
    OP_BYE,
    OP_HELLO,
    OP_OK,
    OP_PING,
    OP_RESULT,
    OP_STATS,
    OP_TASK,
    ProtocolError,
    recv_msg,
    send_msg,
)
from .workerd import workerd_main

#: Scheduling-loop tick: how long one event wait blocks before the loop
#: re-checks sweeps, timeouts, dispatch, and speculation.
_TICK_SECONDS = 0.02

#: Startup deadline for the first worker daemon to HELLO.
REGISTER_TIMEOUT_SECONDS = 15.0


@dataclass
class Assignment:
    """One dispatched task attempt on one worker."""

    task: Task
    worker_id: str
    tag: int
    started_at: float
    speculative: bool = False
    cancelled: bool = False  # a sibling attempt already won
    reaped: bool = False  # already killed by the task timeout


@dataclass
class Master:
    """The job's master daemon (runs inside the executor process)."""

    job: JobSpec
    ctx_id: int
    hosts: list[str]
    mp_ctx: Any  # a fork multiprocessing context
    events: Counters = field(default_factory=Counters)
    attempts_seen: dict[str, int] = field(default_factory=dict)
    locality: LocalityMap = field(default_factory=LocalityMap)

    def __post_init__(self) -> None:
        conf: JobConf = self.job.conf
        self.heartbeat_interval = conf.get_float(Keys.CLUSTER_HEARTBEAT_INTERVAL)
        self.membership = Membership(heartbeat_interval=self.heartbeat_interval)
        self.policy = SpeculationPolicy.from_conf(conf)
        self._max_attempts = conf.get_positive_int(Keys.TASK_MAX_ATTEMPTS)
        self._task_timeout = conf.get_float(Keys.TASK_TIMEOUT)
        self._net_shuffle = conf.get_str(Keys.SHUFFLE_MODE) == "net"

        self._queue: queue.Queue = queue.Queue()
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._stopping = threading.Event()
        self._closing = False
        self._processes: dict[str, Any] = {}
        self._channels: dict[str, socket.socket] = {}
        self._channel_lock = threading.Lock()
        self._idle: set[str] = set()
        self._tags = iter(range(1, 1 << 30))
        self._assignments: dict[int, Assignment] = {}
        self._by_worker: dict[str, Assignment] = {}
        self._replacements: dict[str, int] = {}
        #: Workers the master killed on purpose (beaten speculation
        #: losers): their deaths are expected, not failures.
        self._sacrificed: set[str] = set()
        self._shuffle_stats: list = []
        # The running phase (scheduler thread only): tasks not yet
        # dispatched, outcomes by task key, the keys the phase waits
        # for, and what its reducers fetch from (None in the map phase).
        self._pending: list[Task] = []
        self._outcomes: dict[str, tuple] = {}
        self._phase_keys: set[str] = set()
        self._fetch_results: list | None = None
        self._phase_durations: list[float] = []
        self._phase_backups = 0
        self._phase_speculated: set[str] = set()
        # Map bookkeeping that outlives the map phase: every map task
        # this master ran, and (net mode) which worker's shuffle server
        # hosts each finished output.
        self._map_tasks: dict[str, Task] = {}
        self._map_server_worker: dict[str, str] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Master":
        """Listen, fork the fleet, and wait for the first registration."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(64)
        self._listener = listener
        self._address = listener.getsockname()
        threading.Thread(
            target=self._accept_loop, daemon=True, name="cluster-master-accept"
        ).start()
        for index, host in enumerate(self.hosts):
            self._spawn(f"w{index:02d}", host)
        deadline = time.monotonic() + REGISTER_TIMEOUT_SECONDS
        while not self.membership.alive():
            if time.monotonic() > deadline:
                raise ExecBackendError(
                    f"no cluster worker registered within {REGISTER_TIMEOUT_SECONDS}s "
                    f"(spawned {len(self._processes)})"
                )
            self._drain_events()
        return self

    def close(self) -> list:
        """Orderly shutdown: BYE every worker, drain final shuffle-server
        stats, then join (politely, then firmly).  Returns the collected
        :class:`~repro.shuffle.server.ShuffleHostStats` snapshots."""
        self._closing = True
        # A worker still grinding a cancelled attempt would only answer
        # BYE after the attempt ends; its result is already discarded, so
        # kill it now rather than stalling the shutdown drain.
        lagging = {
            worker_id
            for worker_id, assignment in self._by_worker.items()
            if assignment.cancelled
        }
        for worker_id in lagging:
            process = self._processes.get(worker_id)
            if process is not None and process.is_alive():
                process.kill()
        # BYE every connected worker and drain until each answered (BYE
        # after its final STATS) or died — re-snapshotting the channel
        # table every pass so a replacement daemon that registers
        # mid-shutdown is dismissed too, not orphaned into the join.
        byed: set[str] = set(lagging)
        answered: set[str] = set(lagging)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with self._channel_lock:
                channels = dict(self._channels)
            for worker_id, sock in channels.items():
                if worker_id in byed:
                    continue
                byed.add(worker_id)
                try:
                    send_msg(sock, OP_BYE)
                except (OSError, ProtocolError):
                    answered.add(worker_id)
            waiting = {
                record.worker_id
                for record in self.membership.records()
                if record.alive
                and record.worker_id in byed
                and record.worker_id not in answered
            }
            if not waiting:
                break
            try:
                event = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            if event[0] == "stats":
                self._shuffle_stats.append(event[2])
            elif event[0] in ("bye", "eof"):
                answered.add(event[1])
        self._stopping.set()
        if self._listener is not None:
            try:
                # Closing a listener does not wake a thread blocked in
                # accept(): knock once so the accept loop sees the stop
                # flag and ends — it holds this master, and through it
                # every map output of the job, for as long as it lives.
                socket.create_connection(self._address, timeout=1.0).close()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        # A daemon that connected in the break-to-close race window still
        # gets its BYE so the join below never waits it out.
        with self._channel_lock:
            channels = dict(self._channels)
        for worker_id, sock in channels.items():
            if worker_id not in byed:
                try:
                    send_msg(sock, OP_BYE)
                except (OSError, ProtocolError):
                    pass
        for worker_id, process in self._processes.items():
            if self.membership.get(worker_id) is None:
                # Never registered, so it holds no output and no stats.
                # Every daemon inherits the listener's fd across fork, so
                # a late replacement's connect still lands in a backlog
                # no one accepts, and it would wait out the join below.
                process.kill()
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        with self._channel_lock:
            channels = dict(self._channels)
        for sock in channels.values():
            try:
                sock.close()
            except OSError:
                pass
        return self._shuffle_stats

    def _spawn(self, worker_id: str, host: str) -> None:
        process = self.mp_ctx.Process(
            target=workerd_main,
            kwargs=dict(
                worker_id=worker_id,
                host=host,
                master_address=self._address,
                ctx_id=self.ctx_id,
                heartbeat_interval=self.heartbeat_interval,
            ),
            daemon=True,
        )
        process.start()
        self._processes[worker_id] = process

    def _spawn_replacement(self, record: WorkerRecord) -> None:
        """A fresh daemon under the dead worker's host label, keeping
        capacity constant and locality hints / DFS local reads valid."""
        base = record.worker_id.split(".r", 1)[0]
        clone = self._replacements.get(base, 0) + 1
        self._replacements[base] = clone
        self._spawn(f"{base}.r{clone}", record.host)

    # ------------------------------------------------------------------
    # connection handling (handler threads; scheduler state via queue)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            if self._stopping.is_set():
                sock.close()  # close()'s wake-up call, or a daemon too late
                return
            threading.Thread(
                target=self._handle_conn, args=(sock,), daemon=True
            ).start()

    def _handle_conn(self, sock: socket.socket) -> None:
        try:
            opcode, message = recv_msg(sock)
        except (ConnectionError, ProtocolError, OSError):
            sock.close()
            return
        if opcode == OP_PING:
            self._handle_ping(sock, message)
            return
        if opcode != OP_HELLO:
            sock.close()
            return
        worker_id = message["worker_id"]
        if self._closing:
            # The job is already over — a replacement daemon racing into
            # the shutdown would otherwise park on an empty task channel
            # until the join deadline kills it.  Dismiss it now.
            try:
                send_msg(sock, OP_BYE)
                while recv_msg(sock)[0] != OP_BYE:
                    pass
            except (ConnectionError, ProtocolError, OSError):
                pass
            sock.close()
            return
        try:
            self.membership.register(
                worker_id,
                message["host"],
                now=time.monotonic(),
                pid=message.get("pid", 0),
                shuffle_address=message.get("shuffle_address"),
            )
        except ValueError:
            sock.close()
            return
        with self._channel_lock:
            self._channels[worker_id] = sock
        if self._closing:
            # close() may have swept the channel table in the instant
            # between the check above and the insert; BYE directly so
            # this worker is dismissed no matter which side won.
            try:
                send_msg(sock, OP_BYE)
            except (OSError, ProtocolError):
                pass
        self._queue.put(("hello", worker_id, message))
        self._reader_loop(worker_id, sock)

    def _handle_ping(self, sock: socket.socket, message: dict) -> None:
        worker_id = message.get("worker_id", "")
        if drop_heartbeat(worker_id):
            # The master never heard this ping — but the worker is told
            # OK, so only the master's side of the partition exists.
            reply = OP_OK
        elif self.membership.heartbeat(worker_id, time.monotonic()):
            reply = OP_OK
        else:
            reply = OP_BYE  # unknown or declared dead: go away
        try:
            send_msg(sock, reply)
        except (OSError, ProtocolError):
            pass
        finally:
            sock.close()

    def _reader_loop(self, worker_id: str, sock: socket.socket) -> None:
        while True:
            try:
                opcode, message = recv_msg(sock)
            except (ConnectionError, ProtocolError, OSError):
                self._queue.put(("eof", worker_id))
                return
            if opcode == OP_RESULT:
                self._queue.put(("result", worker_id, message))
            elif opcode == OP_STATS:
                self._queue.put(("stats", worker_id, message))
            elif opcode == OP_BYE:
                self._queue.put(("bye", worker_id))
                return

    # ------------------------------------------------------------------
    # one phase of the job plan
    # ------------------------------------------------------------------
    def run_phase(self, tasks: list[Task], fetch_results: list | None) -> list[tuple]:
        """Run *tasks* to outcomes, returned in task order (the driver
        fails the job on the first failed one).  *fetch_results* is what
        this phase's reducers fetch from; an entry whose daemon dies is
        re-executed and replaced in place, so the caller's list always
        names live outputs."""
        for task in tasks:
            if task.kind == "map":
                task.preferred_hosts = self.locality.preferred_hosts(task.payload)
                self._map_tasks[task.key] = task
        self._pending = list(tasks)
        self._outcomes = {}
        self._phase_keys = {task.key for task in tasks}
        self._fetch_results = fetch_results
        self._phase_durations = []
        self._phase_backups = 0
        self._phase_speculated = set()
        while not all(key in self._outcomes for key in self._phase_keys):
            self._drain_events()
            self._sweep()
            self._reap_hung()
            self._dispatch()
            self._speculate()
        return [self._outcomes[task.key] for task in tasks]

    # ------------------------------------------------------------------
    # event handling (scheduler thread)
    # ------------------------------------------------------------------
    def _drain_events(self) -> None:
        try:
            event = self._queue.get(timeout=_TICK_SECONDS)
        except queue.Empty:
            return
        while True:
            self._handle_event(event)
            try:
                event = self._queue.get_nowait()
            except queue.Empty:
                return

    def _handle_event(self, event: tuple) -> None:
        kind = event[0]
        if kind == "hello":
            _, worker_id, message = event
            self.events.incr(
                Counter.DFS_READ_FAILOVERS, message.get("dfs_failovers", 0)
            )
            self._idle.add(worker_id)
        elif kind == "result":
            self._handle_result(event[1], event[2])
        elif kind == "eof":
            if not self._closing:
                record = self.membership.mark_dead(event[1])
                if record is not None:
                    self._on_worker_dead(record)
        elif kind == "stats":
            self._shuffle_stats.append(event[2])
        # "bye" during a phase: the worker is shutting down on its own
        # terms; the EOF that follows does the bookkeeping.

    def _handle_result(self, worker_id: str, message: dict) -> None:
        assignment = self._assignments.pop(message["tag"], None)
        if self._by_worker.get(worker_id) is assignment:
            del self._by_worker[worker_id]
        self._idle.add(worker_id)
        if assignment is None:
            return
        task = assignment.task
        outcome = message["outcome"]
        task_id, attempts, result, error = outcome
        in_phase = task.key in self._phase_keys
        already_done = task.key in self._outcomes or (
            not in_phase and task.key in self._map_server_worker
        )
        if assignment.cancelled or already_done:
            return  # the losing attempt of a speculated task
        note_attempts(self.attempts_seen, task_id, attempts)
        if (
            error is not None
            and isinstance(error, ShuffleError)
            and task.kind == "reduce"
        ):
            # The fetch retry budget died against a lost shuffle server;
            # a fresh reduce attempt against the re-hosted map output can
            # succeed, so burn one attempt and requeue instead of failing.
            consumed = task.attempt_offset + 1
            note_attempts(self.attempts_seen, task.key, consumed)
            if consumed < self._max_attempts:
                self._pending.insert(
                    0, dataclasses.replace(task, attempt_offset=consumed)
                )
                return
        if error is None and task.kind == "map" and self._net_shuffle:
            self._map_server_worker[task.key] = worker_id
        if in_phase:
            self._outcomes[task.key] = outcome
            if error is None:
                self._phase_durations.append(message.get("seconds", 0.0))
                if assignment.speculative:
                    self.events.incr(Counter.SPECULATIVE_WINS)
        elif error is not None:
            # A map re-execution (repair of a dead worker's lost output)
            # failed for good: the pending reducers can never fetch this
            # partition, so the job fails here with the causal error.
            raise error
        elif (slot := self._fetch_slot(task.key)) is not None:
            # The repair landed: reducers dispatched from now on fetch
            # the re-hosted output, and the driver's list reports it.
            assert self._fetch_results is not None
            self._fetch_results[slot] = result
        # First finisher wins: cancel any sibling attempts still running.
        for sibling in list(self._assignments.values()):
            if sibling.task.key == task.key:
                sibling.cancelled = True
                self._cancel_worker(sibling.worker_id)

    def _fetch_slot(self, key: str) -> int | None:
        """Where the output of map task *key* sits in this phase's
        *fetch_results*; ``None`` when reducers do not fetch it (the map
        phase itself; per-node synthetics fetched in its place)."""
        for slot, result in enumerate(self._fetch_results or ()):
            if result.task_id == key:
                return slot
        return None

    def _cancel_worker(self, worker_id: str) -> None:
        """Abort a beaten attempt by killing its daemon — the daemon is
        the unit of cancellation (a stalled attempt cannot be interrupted
        from inside).  Skipped when the daemon's shuffle server still
        hosts map outputs pending reducers need; then the loser just runs
        out and its late result is discarded."""
        if any(host == worker_id for host in self._map_server_worker.values()):
            return
        process = self._processes.get(worker_id)
        if process is not None and process.is_alive():
            self._sacrificed.add(worker_id)
            process.kill()

    # ------------------------------------------------------------------
    # failure detection (scheduler thread)
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        for transition in self.membership.sweep(time.monotonic()):
            if transition.new is WorkerState.DEAD:
                self._on_worker_dead(transition.record)

    def _reap_hung(self) -> None:
        """Kill workers whose current attempt exceeded the task timeout;
        the death then flows through the lost-attempt path (the whole
        daemon is the unit of reaping)."""
        if self._task_timeout <= 0:
            return
        now = time.monotonic()
        for assignment in list(self._assignments.values()):
            if (
                not assignment.reaped
                and not assignment.cancelled
                and now - assignment.started_at > self._task_timeout
            ):
                self.events.incr(Counter.TASK_TIMEOUTS)
                assignment.reaped = True
                process = self._processes.get(assignment.worker_id)
                if process is not None and process.is_alive():
                    process.kill()

    def _on_worker_dead(self, record: WorkerRecord) -> None:
        """Pool-equivalent recovery, at daemon granularity: account the
        lost in-flight attempt (reschedule or quarantine), re-execute
        completed map outputs whose shuffle server died with the worker,
        and keep capacity constant with a replacement daemon."""
        worker_id = record.worker_id
        record.state = WorkerState.DEAD
        if worker_id in self._sacrificed:
            self._sacrificed.discard(worker_id)
        else:
            self.events.incr(Counter.WORKERS_LOST)
        self._idle.discard(worker_id)
        process = self._processes.get(worker_id)
        if process is not None and process.is_alive():
            process.kill()
        with self._channel_lock:
            sock = self._channels.pop(worker_id, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

        assignment = self._by_worker.pop(worker_id, None)
        if assignment is not None:
            self._assignments.pop(assignment.tag, None)
            task = assignment.task
            if not assignment.cancelled and task.key not in self._outcomes:
                self.events.incr(Counter.WORKER_CRASHES)
                note_attempts(self.attempts_seen, task.key, task.attempt_offset + 1)
                has_sibling = any(
                    a.task.key == task.key and not a.cancelled
                    for a in self._assignments.values()
                )
                if not has_sibling:  # else the surviving attempt carries the task
                    lost = lose_attempt(task, self._max_attempts)
                    if isinstance(lost, Task):
                        self._pending.insert(0, lost)
                    else:
                        self.events.incr(Counter.TASKS_QUARANTINED)
                        self._outcomes[task.key] = lost

        if self._net_shuffle:
            self._reexecute_lost_maps(worker_id)
        if not self._closing:
            self._spawn_replacement(record)

    def _reexecute_lost_maps(self, worker_id: str) -> None:
        """Completed-but-unfetched map attempts died with their shuffle
        server: requeue them (Hadoop re-runs completed maps of a lost
        tasktracker for the same reason).  The re-execution rides the
        current phase's scheduling loop, whichever phase that is."""
        lost = [
            key
            for key, server_worker in self._map_server_worker.items()
            if server_worker == worker_id
        ]
        for key in lost:
            del self._map_server_worker[key]
            if key in self._phase_keys:
                # During the map phase the outcome (if any) is withdrawn
                # so the phase completion count stays honest.
                self._outcomes.pop(key, None)
            elif self._fetch_slot(key) is None:
                # Reducers fetch the driver-served per-node outputs, not
                # this daemon's original — nothing to re-execute.
                continue
            if any(task.key == key for task in self._pending):
                continue
            # Not a failure: re-hosting consumes no fresh failure budget,
            # but runs as a later attempt so per-attempt fault rules
            # (worker.kill attempts=1) see it as the retry it is.
            offset = min(self.attempts_seen.get(key, 1), self._max_attempts - 1)
            self._pending.insert(
                0,
                dataclasses.replace(self._map_tasks[key], attempt_offset=offset),
            )

    # ------------------------------------------------------------------
    # dispatch + speculation (scheduler thread)
    # ------------------------------------------------------------------
    def _ready(self, task: Task) -> bool:
        """Reduce tasks wait until every output they fetch from a daemon
        has a live server (net mode); outputs the driver serves — per-node
        synthetics — are always ready, and so is a repair map."""
        if task.kind != "reduce" or not self._net_shuffle:
            return True
        alive = {record.worker_id for record in self.membership.alive()}
        return all(
            self._map_server_worker.get(result.task_id) in alive
            for result in self._fetch_results or ()
            if result.task_id in self._map_tasks
        )

    def _send_task(
        self, worker_id: str, task: Task, speculative: bool = False
    ) -> bool:
        with self._channel_lock:
            sock = self._channels.get(worker_id)
        if sock is None:
            return False
        # Built at dispatch time, so a reducer always sees the *current*
        # fetch results — including any re-hosted outputs.
        fetch_results = list(self._fetch_results or ()) if task.kind == "reduce" else None
        tag = next(self._tags)
        try:
            send_msg(
                sock, OP_TASK, {"task": task, "fetch_results": fetch_results, "tag": tag}
            )
        except (OSError, ProtocolError):
            return False  # the EOF event will account for this worker
        assignment = Assignment(
            task=task,
            worker_id=worker_id,
            tag=tag,
            started_at=time.monotonic(),
            speculative=speculative,
        )
        self._assignments[tag] = assignment
        self._by_worker[worker_id] = assignment
        self._idle.discard(worker_id)
        return True

    def _dispatch(self) -> None:
        # A requeued attempt whose task meanwhile completed (a sibling
        # won) is dead weight; drop it before placing work.
        pending = self._pending
        pending[:] = [task for task in pending if task.key not in self._outcomes]
        for worker_id in sorted(self._idle):
            if not pending:
                return
            record = self.membership.get(worker_id)
            if record is None or not record.schedulable:
                continue
            dispatchable = [task for task in pending if self._ready(task)]
            if not dispatchable:
                return
            task = dispatchable[choose_task(dispatchable, record.host)]
            if not self._send_task(worker_id, task):
                continue
            pending.remove(task)
            if (
                task.kind == "map"
                and task.attempt_offset == 0
                and record.host in task.preferred_hosts
            ):
                self.events.incr(Counter.DATA_LOCAL_MAPS)

    def _speculate(self) -> None:
        """The shared policy against real wall clocks: once a quorum of
        the phase completed, back up any running attempt lagging past
        the slowdown threshold onto a free worker."""
        outcomes, phase_keys = self._outcomes, self._phase_keys
        if not self.policy.enabled or not phase_keys:
            return
        done = sum(1 for key in phase_keys if key in outcomes)
        if not self.policy.quorum_reached(done, len(phase_keys)):
            return
        median = self.policy.median_duration(self._phase_durations)
        if median <= 0:
            return
        now = time.monotonic()
        for assignment in sorted(
            self._assignments.values(), key=lambda a: a.started_at
        ):
            task = assignment.task
            if (
                assignment.speculative
                or assignment.cancelled
                or assignment.reaped
                or task.key not in phase_keys
                or task.key in outcomes
                or task.key in self._phase_speculated
            ):
                continue
            if not self.policy.backup_allowed(self._phase_backups):
                return
            if not self.policy.is_straggler(now - assignment.started_at, median):
                continue
            worker_id = self._pick_backup_worker(task, exclude=assignment.worker_id)
            if worker_id is None:
                return  # no free slot this tick; try again next tick
            backup = dataclasses.replace(task, attempt_offset=task.attempt_offset + 1)
            if self._send_task(worker_id, backup, speculative=True):
                self._phase_backups += 1
                self._phase_speculated.add(task.key)
                self.events.incr(Counter.SPECULATIVE_LAUNCHES)

    def _pick_backup_worker(
        self, task: Task, exclude: str
    ) -> str | None:
        candidates = [
            worker_id
            for worker_id in sorted(self._idle)
            if worker_id != exclude
            and (record := self.membership.get(worker_id)) is not None
            and record.schedulable
        ]
        if not candidates:
            return None
        for worker_id in candidates:  # prefer a data-local backup
            record = self.membership.get(worker_id)
            if record is not None and record.host in task.preferred_hosts:
                return worker_id
        return candidates[0]


class ClusterExecutor(Executor):
    """The ``cluster`` transport: a master daemon scheduling over worker
    daemons it forks, with heartbeat failure detection, locality-aware
    placement against a staged DFS, and speculative re-execution.

    ``repro.exec.workers`` sets the daemon count; each daemon gets a
    distinct host label, its preferred DFS replicas, and (net mode) its
    own shuffle server.
    Byte-identical to the serial backend on fault-free runs: the plan,
    engine code, split boundaries, and accounting contract are all shared.
    """

    name = "cluster"
    _master: Master | None = None
    _tmp_root: str | None = None
    _ctx_id: int | None = None

    def open(self, job: JobSpec) -> None:
        mp_ctx = workers.fork_context()
        hosts = [f"node{index:02d}" for index in range(self.workers)]
        self._tmp_root = tempfile.mkdtemp(prefix=f"repro-cluster-{job.name}-")
        locality = stage_locality(job, hosts)
        self._ctx_id = workers.push_context(job, self._tmp_root, self.host, locality.dfs)
        # The job plan installed the fault plan before this fork, so the
        # daemons inherit the armed injector with the job context — and
        # the master's own process consults it for heartbeat_drop rules.
        self._master = Master(
            job=job,
            ctx_id=self._ctx_id,
            hosts=hosts,
            mp_ctx=mp_ctx,
            events=self.events,
            attempts_seen=self.task_attempts,
            locality=locality,
        )
        self._master.start()

    def run_tasks(self, tasks, fetch_results):
        assert self._master is not None
        return self._master.run_phase(tasks, fetch_results)

    def close(self) -> list:
        shuffle_hosts: list = []
        if self._master is not None:
            shuffle_hosts = self._master.close()
            self._master = None
        if self._ctx_id is not None:
            workers.pop_context(self._ctx_id)
            self._ctx_id = None
        if self._tmp_root is not None:
            shutil.rmtree(self._tmp_root, ignore_errors=True)
            self._tmp_root = None
        return shuffle_hosts
