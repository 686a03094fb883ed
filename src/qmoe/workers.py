"""Tasks on every usable CPU: task 0 in the process, each other task in a
forked child that sends its result back through a pipe.

``fork_map`` is the package's one fork loop. ``load_csv`` parses the parts
of a file's body through it, and ``cross_validate`` fits its folds through
it. A child shares the parent's memory copy-on-write and inherits its BLAS
thread setting; it returns only what its task returns, pickled. Python 3.12
and later warn (DeprecationWarning) when a process that runs threads forks;
the package starts no thread of its own.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork a task."""
    fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if fork else 1


def fork_map(task, n: int) -> list:
    """``[task(0), ..., task(n - 1)]``: task 0 runs in the process, task k in
    forked child k.

    A child runs inside ``try/finally: os._exit``, so it never returns into
    the caller, runs no exit handler and writes nothing but its pipe: the
    pickled result of its task, or the exception the task raised. The parent
    reads each pipe to EOF before it reaps the child, so a result larger than
    the pipe's buffer cannot stall the child. A task whose fork is refused, or
    whose child ends without a result (killed, or holding a result that does
    not pickle), runs again in the process. When tasks raise, every child is
    still reaped, and then the exception of the lowest-numbered failing task
    is raised. An interrupt, or any fault outside a task, sends SIGKILL to
    every child not yet reaped, and reaps it, before it propagates.
    """
    children = {}  # task -> (pid, the read end of its pipe), until the child is reaped
    try:
        for k in range(1, n):
            if (child := _spawn(task, k)) is not None:
                children[k] = child
        outcomes = {k: _run(task, k) for k in range(n) if k not in children}
        for k in list(children):
            pid, pipe = children[k]
            sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            pipe.close()
            outcomes[k] = (status == 0 and _unpickled(sent)) or _run(task, k)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failed := [k for k in range(n) if not outcomes[k][0]]:
        raise outcomes[failed[0]][1]
    return [outcomes[k][1] for k in range(n)]


def _run(task, k: int) -> tuple:
    """``(True, task(k))``, or ``(False, the exception it raised)``."""
    try:
        return True, task(k)
    except Exception as exc:  # fork_map hands it to its caller
        return False, exc


def _spawn(task, k: int):
    """``(pid, pipe)`` of a forked child running task k, or None when the pipe
    or the fork is refused."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            sent = pickle.dumps(_run(task, k))
            with open(write, "wb") as pipe:
                pipe.write(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _unpickled(sent: bytes):
    """The ``(ok, value)`` a child sent, or None when it does not unpickle."""
    try:
        return pickle.loads(sent)
    except Exception:  # a truncated or unloadable result: the task runs again here
        return None
