"""Independent jobs on the host's cores: threads for numpy work, which
releases the GIL, or forked processes for pure-Python loops, and no pool
when one worker is all there is.  Each job draws only on random streams of
its own, so the worker count never changes a result.

`imap` hands the results back in job order while it runs at most two jobs
per worker ahead of the one the caller holds, so the results alive at once
are bounded by the worker count, not by the number of jobs; `run` is the
list of them.  `concurrent.futures` and `multiprocessing` are imported only
when a pool is used: at module level they would add to every
`import rtq.cli`.
"""

from __future__ import annotations

import itertools
import os
from collections import deque

__all__ = ["workers", "imap", "run"]


def workers(jobs: int) -> int:
    """Workers for `jobs` independent jobs: at most one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)  # no affinity mask off Linux


def imap(fn, jobs, processes: bool = False):
    """fn(job) for job in jobs, yielded in job order, on a thread pool, or
    on a fork-context process pool when `processes` is set.

    At most 2 x workers jobs are submitted ahead of the result last yielded.
    When fn raises, or the caller closes the generator early, the jobs not
    yet started are cancelled and the running ones finish before the pool
    shuts down.  A forked pool needs `fn` to be a module-level function, and
    the caller to have no other live threads: forking a process with live
    threads can deadlock the child.
    """
    jobs = list(jobs)
    count = workers(len(jobs))
    if count <= 1:
        yield from map(fn, jobs)
        return
    if processes:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("fork"))
    else:
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


def run(fn, jobs, processes: bool = False) -> list:
    """[fn(job) for job in jobs], through `imap`."""
    return list(imap(fn, jobs, processes))
