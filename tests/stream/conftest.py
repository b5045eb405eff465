"""Fixtures for the stream suite (split-level delta + micro-batch driver).

Every test here carries ``@pytest.mark.stream``: they run real pipeline
batches (some on the process backend) against on-disk driver state, so
the autouse fixture below arms a per-test wall-clock alarm (mirroring
the ``cluster`` marker's setup in ``tests/cluster/conftest.py``) — a
wedged poll loop kills the *test*, not the whole CI run.  Tune with
``REPRO_STREAM_TEST_TIMEOUT`` (seconds).
"""

from __future__ import annotations

import os
import signal

import pytest

DEFAULT_TIMEOUT_SECONDS = 120


@pytest.fixture(autouse=True)
def stream_test_timeout(request):
    if request.node.get_closest_marker("stream") is None or not hasattr(
        signal, "SIGALRM"
    ):
        yield
        return
    seconds = int(
        os.environ.get("REPRO_STREAM_TEST_TIMEOUT", DEFAULT_TIMEOUT_SECONDS)
    )

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"stream test exceeded its {seconds}s per-test timeout "
            "(wedged driver poll loop or lost pool worker?)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def corpus_lines() -> bytes:
    """A repetitive corpus whose splits are cheap to map.  Sized to
    span several of the streaming suite's fixed 32 KiB splits (~130 KiB)
    so appends leave most split boundaries untouched."""
    lines = [
        f"the quick brown fox line {i} jumps over the lazy dog"
        for i in range(2500)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
