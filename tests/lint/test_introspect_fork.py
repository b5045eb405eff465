"""A forked worker must not inherit a held introspection lock.

Every source introspection runs under one process-wide lock
(``repro.introspect``).  Workers are forked while other threads of the
parent may hold it — a pipeline stage fingerprinting user code, a task
taking its fold or reducer proof — and a child that inherited it locked
would block on its first proof forever.
"""

from __future__ import annotations

import multiprocessing
import threading

from repro import introspect
from repro.apps.extras import IdentityReducer
from repro.lint.proofs import reducer_proof
from repro.serde.text import Text


def _prove_in_child() -> None:
    reducer_proof.cache_clear()  # parse the source here, under the lock
    assert reducer_proof(IdentityReducer, Text).identity


def test_a_child_forked_under_a_held_lock_can_still_prove():
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with introspect._LOCK:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        child = multiprocessing.get_context("fork").Process(target=_prove_in_child)
        child.start()
        child.join(20)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join(10)
    finally:
        release.set()
        holder.join(10)
    assert not hung, "the child blocked on the inherited introspection lock"
    assert child.exitcode == 0
    assert not holder.is_alive()
