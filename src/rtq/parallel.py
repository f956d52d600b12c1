"""Independent jobs on the host's cores: threads for numpy work, which
releases the GIL, or forked processes for pure-Python loops, and no pool
when one worker is all there is.  Each job draws only on random streams of
its own, so the worker count never changes a result.  `concurrent.futures`
and `multiprocessing` are imported only when a pool is used: at module
level they would add to every `import rtq.cli`.
"""

from __future__ import annotations

import os

__all__ = ["workers", "run"]


def workers(jobs: int) -> int:
    """Workers for `jobs` independent jobs: at most one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)  # no affinity mask off Linux


def run(fn, jobs, processes: bool = False) -> list:
    """[fn(job) for job in jobs], on a thread pool, or on a fork-context
    process pool when `processes` is set.  A forked pool needs `fn` to be a
    module-level function, and the caller to have no other live threads:
    forking a process with live threads can deadlock the child."""
    jobs = list(jobs)
    count = workers(len(jobs))
    if count <= 1:
        return [fn(job) for job in jobs]
    if processes:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("fork"))
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(count)
    with pool:
        return list(pool.map(fn, jobs))
