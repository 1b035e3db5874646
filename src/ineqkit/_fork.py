"""Child processes that each run one function into a pipe (split parse, `ineq compute`)."""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import warnings

# The bytes a child's pipe holds, so that a child writes on while its parent is busy.
_PIPE_BYTES = 1 << 20


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or the
    system does not say."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _may_fork() -> bool:
    """Whether a forked child runs as this process does: no other thread
    runs (a child has only one) and this process reaps its own children."""
    return threading.active_count() == 1 and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL


class Children(dict, contextlib.AbstractContextManager):
    """The pipe of each child process :meth:`start` forked, to its id.  Leaving
    the ``with`` block kills and reaps every child :meth:`reap` has not."""

    def __exit__(self, *exc) -> None:
        for pipe, pid in self.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def start(self, run):
        """The read end of a pipe whose write end, a binary file, a new child
        process passes to ``run`` (None where no process is to be had).  The
        child writes nothing else, and exits 0 once ``run`` returns, else 1."""
        import fcntl  # a system that forks has it

        read, write = os.pipe()
        with contextlib.suppress(AttributeError, OSError):  # Linux only, up to its limit
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns at a fork while any thread runs, BLAS's
                # idle workers included; the child runs only ``run``.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return None
        if pid:
            os.close(write)
            pipe = open(read, "rb")
            self[pipe] = pid
            return pipe
        status = 1
        try:
            os.close(read)
            for pipe in self:  # earlier children's
                pipe.close()
            with open(write, "wb") as pipe:
                run(pipe)
            status = 0
        finally:
            os._exit(status)

    def reap(self, pipe) -> bool:
        """Close ``pipe`` and wait for its child to exit; whether it exited 0."""
        pipe.close()
        return os.waitpid(self.pop(pipe), 0)[1] == 0
