"""Abrupt-shutdown regressions: signals unwind, ports are released.

The properties pinned down here:

* ``graceful_termination`` turns SIGTERM into :class:`SystemExit` so
  ``try/finally`` teardown runs, and restores the previous handler;
* a stopped :class:`ShuffleServer` releases its port — a successor
  can bind the *same* port immediately (the double-start regression).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.shuffle.server import ShuffleServer
from repro.shutdown import graceful_termination

pytestmark = pytest.mark.network


# ----------------------------------------------------------------------
# graceful_termination
# ----------------------------------------------------------------------
def test_sigterm_becomes_systemexit():
    before = signal.getsignal(signal.SIGTERM)
    cleanup_ran = []
    with pytest.raises(SystemExit) as excinfo:
        with graceful_termination():
            try:
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # the signal interrupts this
            finally:
                cleanup_ran.append(True)
    assert excinfo.value.code == 128 + signal.SIGTERM
    assert cleanup_ran == [True]
    assert signal.getsignal(signal.SIGTERM) is before  # handler restored


def test_handler_restored_after_clean_exit():
    before = signal.getsignal(signal.SIGTERM)
    with graceful_termination():
        assert signal.getsignal(signal.SIGTERM) is not before
    assert signal.getsignal(signal.SIGTERM) is before


# ----------------------------------------------------------------------
# ShuffleServer port release
# ----------------------------------------------------------------------
def test_shuffle_server_releases_port_for_successor():
    first = ShuffleServer("host-a").start()
    _, port = first.address
    first.stop()
    # A *different* server instance binds the exact port the first one
    # just released — nothing (thread, socket) is still holding it.
    second = ShuffleServer("host-b", port=port).start()
    try:
        assert second.address == ("127.0.0.1", port)
    finally:
        second.stop()


def test_shuffle_server_restart_same_instance():
    server = ShuffleServer("host-a").start()
    _, port = server.address
    server.stop()
    server.bind_port = port  # pin the port it had
    server.start()
    try:
        assert server.address == ("127.0.0.1", port)
    finally:
        server.stop()
