"""fork_map: task 0 in the process, every other task in a forked child."""

import errno
import os

import pytest

from qmoe.workers import fork_map
from test_data import _no_children_left


def test_results_come_back_in_task_order_past_the_pipe_buffer():
    parent = os.getpid()
    # Each child's result is 1 MB, far past a 64 KB pipe buffer.
    got = fork_map(lambda k: (k, os.getpid() == parent, bytes([k]) * (1 << 20)), 3)
    _no_children_left()
    assert [(k, here) for k, here, _ in got] == [(0, True), (1, False), (2, False)]
    assert all(blob == bytes([k]) * (1 << 20) for k, _, blob in got)


def test_a_task_whose_child_ends_without_a_result_runs_in_the_process():
    parent = os.getpid()

    def task(k):
        if os.getpid() != parent:
            if k == 1:
                os._exit(0)  # a child lost before it sends anything
            return lambda: k  # a result that does not pickle
        return k, "here"

    got = fork_map(task, 3)
    _no_children_left()
    assert got == [(0, "here"), (1, "here"), (2, "here")]


def test_a_refused_fork_runs_the_task_in_the_process(monkeypatch):
    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    parent = os.getpid()
    assert fork_map(lambda k: (k, os.getpid() == parent), 3) == [(0, True), (1, True),
                                                                   (2, True)]


def test_the_lowest_failing_task_raises_after_every_child_is_reaped(capfd):
    def task(k):
        if k:
            raise KeyError(f"task {k}")
        return k

    with pytest.raises(KeyError, match="'task 1'"):
        fork_map(task, 3)
    _no_children_left()
    assert capfd.readouterr().err == ""
