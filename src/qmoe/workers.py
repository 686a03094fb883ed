"""The package's one split rule and its one fork loop.

``parts`` cuts a job into contiguous slices, one per usable CPU, and
``fork_map`` maps a task over them: the first in the process, each other in
a forked child that sends its result back through a pipe. ``load_csv`` parses
a file's byte parts, ``cross_validate`` fits its fold ranges and
``combined_predict`` scores a large call's row ranges through them. CPU
affinity is the only control: ``taskset -c 0`` runs one part, in the process.
Forks go one level deep: inside a ``fork_map`` of two or more items, in its
children too, ``parts`` gives one part, so a CV worker's scoring forks nothing.

Every forked caller relies on these facts. A child shares the parent's memory
copy-on-write, so it reads the parent's arrays without a copy; it hands back
only what its task returns, pickled, or what it writes into a shared mapping
the parent made. It inherits the parent's BLAS thread setting. On Linux a
child also dies with its parent: it asks the kernel (``prctl``'s
``PR_SET_PDEATHSIG``) for SIGKILL when the parent ends, and exits at once if
the parent ended before that request, so even a SIGKILLed caller leaves no
worker running. Elsewhere a SIGKILLed caller's children run on to the end of
their tasks. Python 3.12 and later warn (DeprecationWarning) when a process
that runs threads forks; the package starts no thread of its own.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
import sys

_PR_SET_PDEATHSIG = 1
try:  # libc's prctl, resolved once here, not in each child
    _prctl = ctypes.CDLL(None).prctl if sys.platform.startswith("linux") else None
except (OSError, AttributeError):
    _prctl = None
_forked = False  # whether a fork_map of two or more items runs: parts then gives one


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork a task."""
    fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if fork else 1


def parts(n: int, least: int = 1) -> list:
    """Contiguous slices of ``range(n)`` of about equal size: one per usable
    CPU, none shorter than ``least``, and one slice when ``n < 2 * least``
    (``[slice(0, 0)]`` when ``n`` is 0), and one slice inside a ``fork_map`` of
    two or more items. Slice k starts at ``n * k // count``."""
    count = 1 if _forked else max(1, min(usable_cpus(), n // least))
    return [slice(n * k // count, n * (k + 1) // count) for k in range(count)]


def fork_map(task, items) -> list:
    """``[task(item) for item in items]``: the first item's task runs in the
    process, each other item's in a forked child.

    A child runs inside ``try/finally: os._exit``, so it never returns into
    the caller, runs no exit handler and writes nothing but its pipe: the
    pickled result of its task, or the exception the task raised. The parent
    reads each pipe to EOF before it reaps the child, so a result larger than
    the pipe's buffer cannot stall the child. A task whose fork is refused, or
    whose child ends without a result (killed, or holding a result that does
    not pickle), runs again in the process. When tasks raise, every child is
    still reaped, and then the exception of the first failing item's task is
    raised. An interrupt, or any fault outside a task, sends SIGKILL to
    every child not yet reaped, and reaps it, before it propagates. Signals
    wait from each fork until its child is recorded, so a signal handler's
    exception cannot leave a child behind.
    """
    global _forked
    n, outer = len(items), _forked
    _forked = outer or n > 1
    children = {}  # item index -> (pid, the read end of its pipe), until the child is reaped
    try:
        for k in range(1, n):
            held = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                if (child := _spawn(task, items[k], held)) is not None:
                    children[k] = child
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        outcomes = {k: _run(task, items[k]) for k in range(n) if k not in children}
        for k in list(children):
            pid, pipe = children[k]
            sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            pipe.close()
            outcomes[k] = (status == 0 and _unpickled(sent)) or _run(task, items[k])
    finally:
        _forked = outer
        for pid, pipe in children.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failed := [k for k in range(n) if not outcomes[k][0]]:
        raise outcomes[failed[0]][1]
    return [outcomes[k][1] for k in range(n)]


def _run(task, item) -> tuple:
    """``(True, task(item))``, or ``(False, the exception it raised)``."""
    try:
        return True, task(item)
    except Exception as exc:  # fork_map hands it to its caller
        return False, exc


def _spawn(task, item, mask):
    """``(pid, pipe)`` of a forked child running ``task(item)`` under the signal
    ``mask``, or None when the pipe or the fork is refused. On Linux the child
    dies with this process."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if _prctl is not None:  # die with the parent, even a SIGKILLed one
                _prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGKILL))
                if os.getppid() != parent:  # it died before the request took hold
                    os._exit(status)
            os.close(read)
            sent = pickle.dumps(_run(task, item))
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
