"""The leak check counts only temp trees this test session made."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from tests.conftest import SYSTEM_TEMP, _temp_trees


@pytest.fixture(scope="module")
def outside_trees():
    """Trees "another process" made; removed only after the module, so
    each one is still there when the leak check tears its test down."""
    made: list[str] = []
    yield made
    for path in made:
        shutil.rmtree(path, ignore_errors=True)


def test_tree_outside_the_session_root_is_not_a_leak(outside_trees):
    path = tempfile.mkdtemp(prefix="repro-cluster-outside-", dir=SYSTEM_TEMP)
    outside_trees.append(path)
    assert os.path.commonpath([path, tempfile.gettempdir()]) != tempfile.gettempdir()
    assert path not in _temp_trees()


def test_tree_under_the_session_root_is_seen():
    path = tempfile.mkdtemp(prefix="repro-cluster-inside-")
    try:
        assert path in _temp_trees()
    finally:
        shutil.rmtree(path)
