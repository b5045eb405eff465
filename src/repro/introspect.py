"""Serialized source introspection for fingerprints and the linter.

CPython's AST constructor keeps its recursion bookkeeping in state
shared by every thread of the interpreter, and ``inspect.getsource`` of
a *class* parses the whole defining module with ``ast.parse`` to locate
the definition.  Two threads introspecting at once can therefore race
inside the interpreter itself; observed failure modes (CPython 3.11):

- ``SystemError: AST constructor recursion depth mismatch`` raised out
  of ``ast.parse`` — surfaced as a flaky stage failure;
- the class-finder walk silently coming up empty, which ``inspect``
  reports as ``OSError: could not find class definition`` — swallowed
  by the fingerprint fallback and surfaced as a spurious job-id change
  (the digest degrades to name-only for that one run).

:class:`~repro.engine.runner.LocalJobRunner` may be driven from several
caller threads at once (each building, linting and proving its own
job), so every source-introspection entry point funnels through one
process-wide lock.  ``linecache``'s module-level cache, which
``inspect`` reads and mutates with no locking of its own, is covered by
the same lock for the same reason.  Introspection is rare (once per job
build / lint pass) and brief, so serializing it costs nothing
measurable.
"""

from __future__ import annotations

import ast
import inspect
import os
import threading
from typing import Any

_LOCK = threading.RLock()


def _reset_lock_in_child() -> None:
    # A fork copies the lock in whatever state another thread left it:
    # a worker forked while another thread was fingerprinting, or a
    # task was taking its fold proof, would block on its first
    # introspection forever.  The child has one thread, so a new lock
    # is the right state.
    global _LOCK
    _LOCK = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_in_child)


def getsource(obj: Any) -> str:
    """``inspect.getsource`` under the process-wide introspection lock."""
    with _LOCK:
        return inspect.getsource(obj)


def getsourcefile(obj: Any) -> str | None:
    """``inspect.getsourcefile`` under the introspection lock."""
    with _LOCK:
        return inspect.getsourcefile(obj)


def getsourcelines(obj: Any) -> tuple[list[str], int]:
    """``inspect.getsourcelines`` under the introspection lock."""
    with _LOCK:
        return inspect.getsourcelines(obj)


def parse(source: str) -> ast.Module:
    """``ast.parse`` under the introspection lock."""
    with _LOCK:
        return ast.parse(source)
