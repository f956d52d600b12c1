"""`parallel.fork_run`: results in job order, errors with their type, and no
process left behind when a job fails."""

import functools
import glob
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from rtq import cli, errors, parallel, simulator
from rtq.decomposition import DecompositionSampler


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that hangs, 30 s in, instead of hanging the suite; the
    error unwinds through fork_run, which kills and reaps its children."""
    def expired(signum, frame):
        raise TimeoutError("test ran past 30 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def two_workers(monkeypatch):
    # forks on a one-CPU host too
    monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 2))


def _children() -> set:
    """Pids of this process's children, running or unreaped (Linux /proc)."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            pids.update(map(int, fh.read().split()))
    return pids


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, no child of this process is running or unreaped; what
    a failing test left is killed and reaped, so the next one starts clean."""
    before = _children()
    yield
    left = {pid: "unreaped" if os.waitpid(pid, os.WNOHANG)[0] else "running"
            for pid in _children() - before}
    for pid, state in left.items():
        if state == "running":
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert not left, f"children left behind: {left}"


def _forks_recorded(monkeypatch) -> list:
    """The pids of the children this process forks from now on."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _calls(fn, args) -> list:
    """The jobs fn(arg) for arg in args, as callables."""
    return [functools.partial(fn, arg) for arg in args]


def test_results_come_back_in_job_order(two_workers):
    out = parallel.fork_run(_calls(lambda job: (job, os.getpid()), range(4)))
    assert [job for job, _ in out] == [0, 1, 2, 3]
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid in out}) == 4


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one worker")

    monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 1))
    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel.fork_run(_calls(lambda job: (job, os.getpid()), range(3))) == [
        (job, os.getpid()) for job in range(3)
    ]


def test_a_large_result_crosses_the_pipe(two_workers):
    # larger than a pipe's buffer, so the caller must read while the child writes
    out = parallel.fork_run(_calls(lambda job: bytes([job]) * (1 << 20), range(3)))
    assert [len(b) for b in out] == [1 << 20] * 3 and out[2][-1] == 2


@pytest.mark.parametrize("error", [errors.BadParam, errors.RecursionDepthExceeded,
                                   errors.InsufficientData, KeyError])
def test_a_child_error_keeps_its_type(two_workers, error):
    def job(i):
        if i == 1:
            raise error("planted")
        return i

    with pytest.raises(error, match="planted"):
        parallel.fork_run(_calls(job, range(3)))


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(1), "exit status 1"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
])
def test_a_child_that_dies_without_a_result(two_workers, death, message):
    def job(i):
        if i == 1:
            death()
        return i

    with pytest.raises(ChildProcessError, match=f"job 1 ended without a result \\({message}\\)"):
        parallel.fork_run(_calls(job, range(2)))


def test_a_failing_caller_job_kills_and_reaps_the_children(two_workers, monkeypatch):
    children = _forks_recorded(monkeypatch)

    def job(i):
        if i == 0:
            raise errors.NoConvergence("caller fails")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(errors.NoConvergence):
        parallel.fork_run(_calls(job, range(3)))
    assert time.monotonic() - start < 10
    assert len(children) == 2 and not _children() & set(children)


def test_an_interrupted_collect_kills_and_reaps_the_child(two_workers, monkeypatch):
    # job 0 is done and the caller waits on the child's pipe when a signal
    # handler raises: the child still running is killed and reaped
    children = _forks_recorded(monkeypatch)

    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    def job(i):
        if i == 0:  # a thread only once the child is forked
            threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGUSR1)).start()
            return i
        time.sleep(60)

    previous = signal.signal(signal.SIGUSR1, interrupt)
    start = time.monotonic()
    try:
        with pytest.raises(Interrupted):
            parallel.fork_run(_calls(job, range(2)))
    finally:
        signal.signal(signal.SIGUSR1, previous)
    assert time.monotonic() - start < 10
    assert len(children) == 1 and not _children() & set(children)


def test_a_fork_run_in_a_child_forks_nothing(two_workers, monkeypatch):
    forks = _forks_recorded(monkeypatch)

    def job(i):
        if i == 0:
            return None
        inner = parallel.fork_run([os.getpid] * 3)
        return os.getpid(), inner, list(forks)  # the forks this child recorded

    _, (child, inner, child_forks) = parallel.fork_run(_calls(job, range(2)))
    assert inner == [child] * 3 and child_forks == []
    assert forks == [child]


_VERIFY = {
    "model": {"lam": 1.0, "q": 0.5, "mu": 1.0,
              "dist1": {"kind": "pareto", "index": 2.5, "mean": 0.6},
              "dist2": {"kind": "exponential", "mean": 0.3}},
    "sim": {"max_events": 40_000},
    "inversion": {"n": 160, "radius": 0.99},
    "verify": {"window": [30, 120], "light_window": [30, 100],
               "n_states": 40, "samples": 20_000},
    "seed": 3,
}


def _verify(tmp_path, out="out", **overrides) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_VERIFY, **overrides}))
    return cli.main(["verify", "--config", str(path), "--out", str(tmp_path / out)])


def test_verify_report_does_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    # one worker runs every pillar in this process, two fork the replicas
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda jobs, cores=cores: min(jobs, cores))
        assert _verify(tmp_path, out=f"cores{cores}") == 0
    report = "verify_report.json"
    assert (tmp_path / "cores1" / report).read_bytes() == (tmp_path / "cores2" / report).read_bytes()


@pytest.mark.parametrize("cores", [1, 2])
def test_verify_pools_the_run_that_simulate_gives(monkeypatch, tmp_path, cores):
    # verify runs the replica jobs beside its other pillars and pools them
    # itself: the pooled run is simulate's, exactly
    monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, cores))
    pooled, pool = [], simulator.pool

    def recorded(*args):
        pooled.append(pool(*args))
        return pooled[-1]

    monkeypatch.setattr(simulator, "pool", recorded)
    assert _verify(tmp_path) == 0
    cfg = cli.load_config(str(tmp_path / "config.json"))
    ours, theirs = pooled[0], simulator.simulate(cfg.params, cfg.sim)
    assert len(pooled) == 2 and ours.events == theirs.events == 40_000
    assert ours.collected_time == theirs.collected_time
    for field in ("time_in_state", "cycles", "arrivals_seen"):
        assert np.array_equal(getattr(ours, field), getattr(theirs, field)), field
    assert ours.hist == theirs.hist


@pytest.mark.parametrize("error", [errors.BadParam, errors.RecursionDepthExceeded,
                                   errors.InsufficientData])
def test_a_simulator_error_keeps_verify_exit_code(two_workers, monkeypatch, tmp_path,
                                                  capsys, error):
    # the replicas run in forked children: their error reaches main with its type
    caller = os.getpid()

    def failing(job):
        assert os.getpid() != caller, "a replica ran in the caller"
        raise error("planted")

    monkeypatch.setattr(simulator, "_replica", failing)
    code = {errors.BadParam: 2, errors.RecursionDepthExceeded: 3,
            errors.InsufficientData: 4}[error]
    assert _verify(tmp_path) == code
    assert capsys.readouterr().err.endswith(": planted\n")
    assert not (tmp_path / "out").exists()


def test_a_failing_verify_leaves_no_process(two_workers, monkeypatch, tmp_path, capsys):
    # the sampler fails in the caller while both replica children are still
    # simulating 2e7 events
    children = _forks_recorded(monkeypatch)
    raised = []

    def failing_sampler(self, n):
        raised.append(time.monotonic())
        raise errors.RecursionDepthExceeded("sampler fails")

    monkeypatch.setattr(DecompositionSampler, "sample_r0", failing_sampler)
    assert _verify(tmp_path, sim={"max_events": 20_000_000}) == 3
    assert time.monotonic() - raised[0] < 2  # far less than the 2e7 events take
    assert "sampler fails" in capsys.readouterr().err
    assert len(children) == 2 and not _children() & set(children)
    assert not (tmp_path / "out").exists()
