"""Graceful termination: make SIGTERM run cleanup code.

Python maps SIGINT to :class:`KeyboardInterrupt` — so ``finally``
blocks and context managers run on Ctrl-C — but SIGTERM's default
disposition kills the process immediately.  For commands that fork
daemons (the cluster backend's workerd processes, network shuffle
servers), that means orphaned
children and leaked ports whenever a supervisor sends the polite kill.

:func:`graceful_termination` converts the chosen signals into
:class:`SystemExit` for the duration of a ``with`` block, so the
existing ``try/finally`` teardown (``Master.close``,
``ShuffleServer.stop``) runs on the way out and the exit
code follows the ``128 + signum`` convention.  The CLI wraps every
command in it.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def graceful_termination(*signums: int) -> Iterator[None]:
    """Within the block, the given signals (default: SIGTERM) raise
    :class:`SystemExit` instead of killing the process outright.
    Previous handlers are restored on exit.  A no-op off the main
    thread (signal handlers can only be installed there)."""
    if not signums:
        signums = (signal.SIGTERM,)
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def raise_exit(signum: int, _frame) -> None:
        raise SystemExit(128 + signum)

    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, raise_exit)
    except (ValueError, OSError):
        # Exotic host (no such signal, or not installable): run unwrapped.
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        yield
        return
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
