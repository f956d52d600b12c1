"""`parallel.fork_run`: results in job order, errors with their type, one
child at most, and no process left behind when a job fails."""

import dataclasses
import glob
import json
import os
import pickle
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


def test_results_come_back_in_job_order(two_workers):
    first, second = parallel.fork_run(lambda: ("first", os.getpid()),
                                      lambda: ("second", os.getpid()))
    assert first == ("first", os.getpid())
    assert second[0] == "second" and second[1] != os.getpid()


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one worker")

    monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, 1))
    monkeypatch.setattr(os, "fork", no_fork)
    ran = []
    out = parallel.fork_run(lambda: ran.append("first") or os.getpid(),
                            lambda: ran.append("second") or os.getpid())
    assert out == (os.getpid(), os.getpid()) and ran == ["first", "second"]


def test_a_large_result_crosses_the_pipe(two_workers):
    # larger than a pipe's buffer, so the caller must read while the child writes
    out = parallel.fork_run(lambda: None, lambda: bytes([2]) * (1 << 20))
    assert out == (None, bytes([2]) * (1 << 20))


@pytest.mark.parametrize("error", [errors.BadParam, errors.RecursionDepthExceeded,
                                   errors.InsufficientData, KeyError])
def test_a_child_error_keeps_its_type(two_workers, error):
    def second():
        raise error("planted")

    with pytest.raises(error, match="planted"):
        parallel.fork_run(lambda: None, second)


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(1), "exit status 1"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
])
def test_a_child_that_dies_without_a_result(two_workers, death, message):
    with pytest.raises(ChildProcessError,
                       match=f"the child ended without a result \\({message}\\)"):
        parallel.fork_run(lambda: None, death)


def test_a_failing_caller_job_kills_and_reaps_the_children(two_workers, forks_recorded):
    # the caller's job fails while the child still sleeps: the child is
    # killed and reaped at once
    def first():
        raise errors.NoConvergence("caller fails")

    start = time.monotonic()
    with pytest.raises(errors.NoConvergence):
        parallel.fork_run(first, lambda: time.sleep(60))
    assert time.monotonic() - start < 10
    (parent, child), = forks_recorded()
    assert parent == os.getpid() and child not in _children()


def test_an_interrupted_collect_kills_and_reaps_the_child(two_workers, forks_recorded):
    # the caller's job is done and the caller waits on the child's pipe when
    # a signal handler raises: the child still running is killed and reaped
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    def first():  # a thread only once the child is forked
        threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGUSR1)).start()

    previous = signal.signal(signal.SIGUSR1, interrupt)
    start = time.monotonic()
    try:
        with pytest.raises(Interrupted):
            parallel.fork_run(first, lambda: time.sleep(60))
    finally:
        signal.signal(signal.SIGUSR1, previous)
    assert time.monotonic() - start < 10
    (_, child), = forks_recorded()
    assert child not in _children()


def test_a_fork_run_in_a_child_forks_nothing(two_workers, forks_recorded):
    def second():
        return os.getpid(), parallel.fork_run(os.getpid, os.getpid)

    _, (child, inner) = parallel.fork_run(lambda: None, second)
    assert inner == (child, child)
    assert forks_recorded() == [(os.getpid(), child)]


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


@pytest.mark.parametrize("cores", [1, 2])
def test_verify_simulates_the_run_that_simulate_gives(monkeypatch, tmp_path, cores):
    # verify calls `cli.simulate`, the name `rtq simulate` calls, in its one
    # child (in this process with one worker), and reports on the run it
    # gets back: a direct simulate's, field by field
    monkeypatch.setattr(parallel, "workers", lambda jobs: min(jobs, cores))
    calls = tmp_path / "calls"
    simulate, verify_target = cli.simulate, cli._verify_target
    reported = []

    def recorded(params, config):
        with open(calls, "ab") as fh:  # from the child too
            pickle.dump((os.getpid(), config), fh)
        return simulate(params, config)

    def recorded_target(cfg, target, pmfs, sim_res, *rest):
        reported.append(sim_res)
        return verify_target(cfg, target, pmfs, sim_res, *rest)

    monkeypatch.setattr(cli, "simulate", recorded)
    monkeypatch.setattr(cli, "_verify_target", recorded_target)
    assert _verify(tmp_path) == 0
    cfg = cli.load_config(str(tmp_path / "config.json"))
    with open(calls, "rb") as fh:
        (pid, config), rest = pickle.load(fh), fh.read()
    assert rest == b"" and config == cfg.sim
    assert (pid == os.getpid()) == (cores == 1)
    ours, theirs = reported[0], simulate(cfg.params, cfg.sim)
    assert len(reported) == len(simulator.TARGET_STATES)
    assert all(res is ours for res in reported) and ours.events == 40_000
    for field in dataclasses.fields(simulator.SimResult):
        a, b = getattr(ours, field.name), getattr(theirs, field.name)
        assert (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b), field.name


@pytest.mark.parametrize("error", [errors.BadParam, errors.RecursionDepthExceeded,
                                   errors.InsufficientData])
def test_a_simulator_error_keeps_verify_exit_code(two_workers, monkeypatch, tmp_path,
                                                  capsys, error):
    # the replicas run in verify's forked child: their error reaches main with its type
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


def test_a_failing_verify_leaves_no_process(two_workers, forks_recorded, monkeypatch,
                                           tmp_path, capsys):
    # the sampler fails in the caller while the simulator's one child is
    # still simulating 2e7 events
    raised = []

    def failing_sampler(self, n):
        raised.append(time.monotonic())
        raise errors.RecursionDepthExceeded("sampler fails")

    monkeypatch.setattr(DecompositionSampler, "sample_r0", failing_sampler)
    assert _verify(tmp_path, sim={"max_events": 20_000_000}) == 3
    assert time.monotonic() - raised[0] < 2  # far less than the 2e7 events take
    assert "sampler fails" in capsys.readouterr().err
    (parent, child), = forks_recorded()
    assert parent == os.getpid() and child not in _children()
    assert not (tmp_path / "out").exists()


def test_each_command_forks_one_child_at_most(two_workers, forks_recorded, tmp_path):
    # with two workers, simulate and verify fork one child each, which
    # forks nothing, and analyze and sample fork none
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_VERIFY))
    forked = {}
    for command in ("analyze", "sample", "simulate", "verify"):
        logged = len(forks_recorded())
        args = [command, "--config", str(path), "--out", str(tmp_path / command)]
        if command == "sample":
            args += ["--target", "r1", "-n", "1000"]
        assert cli.main(args) == 0, command
        forked[command] = [parent for parent, _ in forks_recorded()[logged:]]
    caller = os.getpid()
    assert forked == {"analyze": [], "sample": [], "simulate": [caller], "verify": [caller]}
