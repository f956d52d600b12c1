"""Independent jobs on the host's cores: threads for numpy work, which
releases the GIL, forked processes for pure-Python loops, and neither when
one worker is all there is.  Each job draws only on random streams of its
own, so the worker count never changes a result.

`make_rng(seed, *key)` builds every numpy generator of the package: PCG64
on the seed's SeedSequence with spawn key `key`.  Distinct keys never
overlap, and the first element of a key names its Monte-Carlo pillar:
- the sampler draws on (0,) when a primitive is called directly, and on
  (0, block) for the blocks of `sample_into`;
- the simulator draws on (1, replica, clock), one key per clock of each
  replica.
So for one seed the pillars share no random bits.

`imap` runs jobs on a thread pool and hands the results back in job order
while it runs at most two jobs per worker ahead of the one the caller holds,
so the results alive at once are bounded by the worker count, not by the
number of jobs.  `concurrent.futures` is imported only when the pool is
used: at module level it would add to every `import rtq.cli`.

`fork_run(first, second)` runs two long jobs at once: `second` in one
forked child and `first` in the caller, and takes the child's result, or its
exception with its type, back pickled over a pipe.  A child runs any
`fork_run` of its own in-process, so a run forks one child at most, and a
failing run SIGKILLs and reaps it: no process outlives the run, not even an
unreaped one.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import sys
from collections import deque

import numpy as np

__all__ = ["make_rng", "workers", "imap", "fork_run"]

_forked = False  # set in a fork_run child, which runs any jobs of its own in-process


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of a seed and a spawn key; distinct keys never overlap."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


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


def fork_run(first, second) -> tuple:
    """(first(), second()): second in a forked child, forked before first
    starts in the caller; in-process when one worker is all there is, or in
    a fork_run child.

    When second raises, its exception is re-raised in the caller with its
    type, and a child that ends without a result raises ChildProcessError;
    either way, and when first raises or the read is interrupted, the child
    is killed and reaped.  second reaches the child by the fork, so a
    closure works; its result or exception goes back pickled.  Forking a
    process with live threads can deadlock the child, so the caller starts
    its threads only in first.
    """
    if _forked or workers(2) <= 1:
        return first(), second()
    pid, fd = _fork(second)
    try:
        result = first()
    except BaseException:
        os.close(fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    ok, value = _collect(pid, fd)
    if not ok:
        raise value
    return result, value


def _fork(job):
    """(pid, read end of its pipe) of a child that runs job(), sends back
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
            _forked = True
            os.close(rfd)  # so that its write fails, not blocks, once the readers are gone
            try:
                payload = pickle.dumps((True, job()), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                payload = _pickled_error(exc)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(wfd)
    return pid, rfd


def _pickled_error(exc) -> bytes:
    try:
        return pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
    except Exception:  # an exception that does not pickle goes back as its text
        return pickle.dumps((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))


def _collect(pid: int, fd: int):
    """(ok, value) that child `pid` sent; the child is reaped whatever
    happens, and killed first when the read got nothing."""
    data = b""
    try:
        with os.fdopen(fd, "rb") as fh:
            data = fh.read()
    finally:
        if not data:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if data:
        return pickle.loads(data)
    code = os.waitstatus_to_exitcode(status)
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    return False, ChildProcessError(f"the child ended without a result ({how})")
