"""`parallel.fork_run`: results in job order, errors with their type, and no
process left behind when a job fails."""

import ctypes
import json
import os
import signal
import time

import pytest

from rtq import cli, errors, parallel
from rtq.decomposition import DecompositionSampler


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that hangs, 30 s in, instead of hanging the suite; the
    error unwinds through fork_run, which stops its children."""
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


def _in_group(pgid: int) -> list:
    """Pids of every process of group `pgid`, zombies included, read from
    /proc."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                group = fh.read().rsplit(")", 1)[1].split()[2]
        except OSError:  # reaped meanwhile
            continue
        if int(group) == pgid:
            pids.append(int(entry))
    return pids


@pytest.fixture
def subreaper():
    """This process adopts its orphaned descendants while the test runs
    (Linux), so the test can reap them."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip("no child subreaper")
    yield
    prctl(_PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


_PR_SET_CHILD_SUBREAPER = 36


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


def test_results_come_back_in_job_order(two_workers):
    out = parallel.fork_run(lambda job: (job, os.getpid()), range(4))
    assert [job for job, _ in out] == [0, 1, 2, 3]
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid in out}) == 4


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one worker")

    monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 1))
    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel.fork_run(lambda job: (job, os.getpid()), range(3)) == [
        (job, os.getpid()) for job in range(3)
    ]


def test_a_large_result_crosses_the_pipe(two_workers):
    # larger than a pipe's buffer, so the caller must read while the child writes
    out = parallel.fork_run(lambda job: bytes([job]) * (1 << 20), range(3))
    assert [len(b) for b in out] == [1 << 20] * 3 and out[2][-1] == 2


@pytest.mark.parametrize("error", [errors.BadParam, errors.RecursionDepthExceeded,
                                   errors.InsufficientData, KeyError])
def test_a_child_error_keeps_its_type(two_workers, error):
    def job(i):
        if i == 1:
            raise error("planted")
        return i

    with pytest.raises(error, match="planted"):
        parallel.fork_run(job, range(3))


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
        parallel.fork_run(job, range(2))


def test_a_dead_child_takes_its_own_children_along(two_workers, monkeypatch, tmp_path,
                                                  subreaper):
    # the child forks a grandchild that would run for a minute, then is
    # killed: the caller neither waits for the grandchild, which holds no
    # copy of the caller's pipe, nor leaves it running
    children = _forks_recorded(monkeypatch)
    ready = tmp_path / "grandchild"

    def grandchild_job(i):
        if i == 1:
            ready.touch()
            time.sleep(60)
        while not ready.exists():
            time.sleep(0.005)
        os.kill(os.getpid(), signal.SIGKILL)

    start = time.monotonic()
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        parallel.fork_run(lambda i: i if i == 0 else parallel.fork_run(grandchild_job, range(2)),
                          range(2))
    # the orphaned grandchild is this process's to reap, killed already
    _, status = os.waitpid(-children[0], 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert time.monotonic() - start < 10
    assert not _in_group(children[0])


def test_a_failing_caller_job_kills_and_reaps_the_children(two_workers, monkeypatch):
    children = _forks_recorded(monkeypatch)

    def job(i):
        if i == 0:
            raise errors.NoConvergence("caller fails")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(errors.NoConvergence):
        parallel.fork_run(job, range(3))
    assert time.monotonic() - start < 10
    assert len(children) == 2 and not any(map(_in_group, children))


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
    # one worker runs every pillar in this process, two fork the simulator
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda jobs, cores=cores: min(jobs, cores))
        assert _verify(tmp_path, out=f"cores{cores}") == 0
    report = "verify_report.json"
    assert (tmp_path / "cores1" / report).read_bytes() == (tmp_path / "cores2" / report).read_bytes()


@pytest.mark.parametrize("error", [errors.BadParam, errors.RecursionDepthExceeded,
                                   errors.InsufficientData])
def test_a_simulator_error_keeps_verify_exit_code(two_workers, monkeypatch, tmp_path,
                                                  capsys, error):
    # the simulator runs in a forked child: its error reaches main with its type
    def failing(params, config):
        raise error("planted")

    monkeypatch.setattr(cli, "simulate", failing)
    code = {errors.BadParam: 2, errors.RecursionDepthExceeded: 3,
            errors.InsufficientData: 4}[error]
    assert _verify(tmp_path) == code
    assert capsys.readouterr().err.endswith(": planted\n")
    assert not (tmp_path / "out").exists()


def test_a_failing_verify_leaves_no_process(two_workers, monkeypatch, tmp_path, capsys):
    # the sampler fails in the caller while the simulator child and its
    # replica-1 grandchild are still simulating 2e7 events
    children = _forks_recorded(monkeypatch)
    raised = []

    def failing_sampler(self, n):
        deadline = time.monotonic() + 5
        while len(_in_group(children[0])) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)  # until the grandchild runs too
        raised.append(time.monotonic())
        raise errors.RecursionDepthExceeded("sampler fails")

    monkeypatch.setattr(DecompositionSampler, "sample_r0", failing_sampler)
    assert _verify(tmp_path, sim={"max_events": 20_000_000}) == 3
    assert time.monotonic() - raised[0] < 2  # far less than the 2e7 events take
    assert "sampler fails" in capsys.readouterr().err
    assert len(children) == 1 and not _in_group(children[0])
    assert not (tmp_path / "out").exists()
