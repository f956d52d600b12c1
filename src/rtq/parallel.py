"""Independent jobs on the host's cores: threads for numpy work, which
releases the GIL, forked processes for pure-Python loops, and neither when
one worker is all there is.  Each job draws only on random streams of its
own, so the worker count never changes a result.

`imap` runs jobs on a thread pool and hands the results back in job order
while it runs at most two jobs per worker ahead of the one the caller holds,
so the results alive at once are bounded by the worker count, not by the
number of jobs.  `concurrent.futures` is imported only when the pool is
used: at module level it would add to every `import rtq.cli`.

`fork_run` runs a few long jobs at once, one per process: it forks one
child per job after the first, runs the first in the caller, and takes each
child's result, or its exception with its type, back pickled over a pipe.
A child of the caller leads a process group of its own, which the
processes it forks in turn join.  When a job fails the caller sends the
group SIGTERM, on which each child stops and reaps its own children before
it exits, so a failing run leaves no process behind, not even an
unreaped one.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import sys
import time
from collections import deque

__all__ = ["workers", "imap", "fork_run"]

_held = set()  # pipe ends of fork_run this process holds; a new child closes them
_forked = False  # set in a fork_run child, whose own children join its group
_GRACE = 2.0  # seconds a stopped child has to exit before it is killed


def workers(jobs: int) -> int:
    """Workers for `jobs` independent jobs: at most one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)  # no affinity mask off Linux


def imap(fn, jobs):
    """fn(job) for job in jobs, yielded in job order, on a thread pool.

    At most 2 x workers jobs are submitted ahead of the result last yielded.
    When fn raises, or the caller closes the generator early, the jobs not
    yet started are cancelled and the running ones finish before the pool
    shuts down.
    """
    jobs = list(jobs)
    count = workers(len(jobs))
    if count <= 1:
        yield from map(fn, jobs)
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(count)
    todo = iter(jobs)
    try:
        ahead = deque(pool.submit(fn, job) for job in itertools.islice(todo, 2 * count))
        while ahead:
            result = ahead.popleft().result()
            ahead.extend(pool.submit(fn, job) for job in itertools.islice(todo, 1))
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def fork_run(fn, jobs) -> list:
    """[fn(job) for job in jobs], job 0 in the caller and each other job in
    a forked child, all forked before job 0 starts; in-process when one
    worker is all there is.

    A job that raises has its exception re-raised in the caller with its
    type, and a child that ends without a result raises ChildProcessError;
    either way, and when job 0 raises, every child still running is stopped
    with the processes it forked, and reaped.  `fn` and the jobs reach the
    children by the fork, so closures work; results and exceptions go back
    pickled.  Forking a process with live threads can deadlock the child,
    so the caller starts its threads only in job 0.
    """
    jobs = list(jobs)
    if workers(len(jobs)) <= 1:
        return [fn(job) for job in jobs]
    children = deque()
    try:
        for i, job in enumerate(jobs[1:], start=1):
            children.append((i, *_fork(fn, job)))
        results = [fn(jobs[0])]
        while children:
            ok, value = _collect(*children.popleft())
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for _, pid, fd in children:
            _held.discard(fd)
            os.close(fd)
            _stop(pid)


def _fork(fn, job):
    """(pid, read end of its pipe) of a child that runs fn(job), sends back
    (True, result) or (False, exception) pickled, and exits."""
    global _forked
    sys.stdout.flush()  # or the child's exit would write the caller's buffer twice
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:  # the child: never returns
        try:
            if not _forked:
                os.setpgid(0, 0)
            signal.signal(signal.SIGTERM, _terminated)
            for fd in _held | {rfd}:  # so that only its writer keeps a pipe open
                os.close(fd)
            _held.clear()
            _held.add(wfd)
            _forked = True
            try:
                payload = pickle.dumps((True, fn(job)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                payload = _pickled_error(exc)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(wfd)
    if not _forked:  # in the caller too, so a kill straight after the fork finds the group
        with contextlib.suppress(OSError):
            os.setpgid(pid, pid)
    _held.add(rfd)
    return pid, rfd


def _pickled_error(exc) -> bytes:
    try:
        return pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
    except Exception:  # an exception that does not pickle goes back as its text
        return pickle.dumps((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))


def _collect(job: int, pid: int, fd: int):
    """(ok, value) that child `pid` sent for job `job`; the child is reaped
    whatever happens."""
    data = b""
    try:
        with os.fdopen(fd, "rb") as fh:
            _held.discard(fd)
            data = fh.read()
    finally:
        if not data:  # it died before sending: what it forked may still run
            _signal(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if data:
        return pickle.loads(data)
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    return False, ChildProcessError(f"job {job} ended without a result ({how})")


def _terminated(signum, frame):
    # unwinds a child's job through fork_run, which stops its own children
    raise SystemExit(f"stopped by signal {signum}")


def _signal(pid: int, signum: int):
    """Send `signum` to child `pid` and what it forked: to its whole group
    when it leads one, which only the caller's children do."""
    with contextlib.suppress(ProcessLookupError):
        if _forked:
            os.kill(pid, signum)
        else:
            os.killpg(pid, signum)


def _stop(pid: int):
    """Stop child `pid` with SIGTERM, or SIGKILL when it has not exited
    within _GRACE seconds, and reap it."""
    _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + _GRACE
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() > deadline:
            _signal(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.001)
