"""parts, the one split rule, and fork_map: the first item's task in the
process, every other item's in a forked child."""

import errno
import os
import signal
import time

import pytest

from qmoe.workers import fork_map, parts
from test_data import _no_children_left


def test_results_come_back_in_task_order_past_the_pipe_buffer():
    parent = os.getpid()
    # Each child's result is 1 MB, far past a 64 KB pipe buffer.
    got = fork_map(lambda k: (k, os.getpid() == parent, bytes([k]) * (1 << 20)), range(3))
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

    got = fork_map(task, range(3))
    _no_children_left()
    assert got == [(0, "here"), (1, "here"), (2, "here")]


def test_a_refused_fork_runs_the_task_in_the_process(monkeypatch):
    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    parent = os.getpid()
    assert fork_map(lambda k: (k, os.getpid() == parent), range(3)) == [(0, True), (1, True),
                                                                   (2, True)]


def test_the_lowest_failing_task_raises_after_every_child_is_reaped(capfd):
    def task(k):
        if k:
            raise KeyError(f"task {k}")
        return k

    with pytest.raises(KeyError, match="'task 1'"):
        fork_map(task, range(3))
    _no_children_left()
    assert capfd.readouterr().err == ""


def test_a_signal_as_a_fork_returns_still_kills_and_reaps_its_child(monkeypatch):
    # A stop signal whose handler ran as os.fork returned, before fork_map had
    # recorded the child, left that child running past the exit it raised.
    forked, real_fork = [], os.fork

    def fork():
        if pid := real_fork():
            forked.append(pid)
            os.kill(os.getpid(), signal.SIGUSR1)
        return pid

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    monkeypatch.setattr(os, "fork", fork)
    previous = signal.signal(signal.SIGUSR1, stop)
    try:
        with pytest.raises(SystemExit):
            fork_map(lambda k: time.sleep(60 * k), range(2))
        _no_children_left()
    finally:
        signal.signal(signal.SIGUSR1, previous)
        for pid in forked:  # the child a failing fork_map left
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    assert len(forked) == 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 7, 15, 100, 1001])
def test_parts_cut_at_n_times_k_over_the_part_count(monkeypatch, cpus, n):
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: cpus)
    p = min(cpus, n)
    assert parts(n) == [slice(n * k // p, n * (k + 1) // p) for k in range(p)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fewer_than_twice_least_is_one_part_and_nothing_is_one_empty_part(monkeypatch, cpus):
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: cpus)
    assert parts(0) == parts(0, 5) == [slice(0, 0)]
    for n in (1, 5, 9):
        assert parts(n, 5) == [slice(0, n)]
    assert len(parts(10, 5)) == min(cpus, 2)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8])
def test_the_part_count_never_exceeds_the_cpus_nor_n_over_least(monkeypatch, cpus):
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: cpus)
    for n in range(0, 60):
        for least in (1, 2, 3, 7, 64):
            got = parts(n, least)
            assert 1 <= len(got) <= max(1, min(cpus, n // least))
            assert got[0].start == 0 and got[-1].stop == n  # contiguous, covering range(n)
            assert all(a.stop == b.start for a, b in zip(got, got[1:]))
            assert len(got) == 1 or min(p.stop - p.start for p in got) >= least


def test_forks_go_one_level_deep(monkeypatch):
    # Inside a map of two or more items, its in-process task and each child
    # see one part, so no task forks again; a one-item map forks nothing and
    # leaves the parts as they are.
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)
    assert fork_map(lambda _: len(parts(10**6)), [0, 1, 2]) == [1, 1, 1]
    _no_children_left()
    assert len(parts(10**6)) == 3
    assert fork_map(lambda _: len(parts(10**6)), [0]) == [3]


def test_a_failing_map_leaves_the_parts_as_they_were(monkeypatch):
    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", refused)  # both tasks run, and fail, in the process
    with pytest.raises(ZeroDivisionError):
        fork_map(lambda k: 1 / 0, [0, 1])
    assert len(parts(10**6)) == 3


def test_fork_map_returns_results_in_item_order_for_any_items():
    parent = os.getpid()
    ranges = [slice(0, 3), slice(3, 5), slice(5, 9)]
    got = fork_map(lambda rows: (list(range(9))[rows], os.getpid() == parent), ranges)
    _no_children_left()
    assert got == [([0, 1, 2], True), ([3, 4], False), ([5, 6, 7, 8], False)]
    pairs = [("b", 2), ("a", 1), ("c", 3)]
    assert fork_map(lambda pair: pair[0] * pair[1], pairs) == ["bb", "a", "ccc"]
    _no_children_left()
