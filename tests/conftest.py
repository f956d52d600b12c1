"""Shared fixtures: expensive objects built once per session, and a record
of the processes a test forks."""

import os

import numpy as np
import pytest

from rtq.asymptotics import tail_catalog
from rtq.decomposition import DecompositionSampler
from rtq.model import Exponential, ModelParams, ParetoShifted
from rtq.simulator import SimConfig, simulate
from rtq.transforms import conditional_pmfs


@pytest.fixture(scope="session")
def ref_params():
    """lam=1, q=0.5, mu=1, heavy type-1 (index 2.5, mean 0.6), light type-2."""
    return ModelParams(
        lam=1.0, q=0.5, mu=1.0,
        dist1=ParetoShifted.from_mean(2.5, 0.6),
        dist2=Exponential(10.0 / 3.0),
    )


@pytest.fixture(scope="session")
def alt_params():
    """Same, but the type-2 law is also power-tailed (index 4.0, mean 0.3)."""
    return ModelParams(
        lam=1.0, q=0.5, mu=1.0,
        dist1=ParetoShifted.from_mean(2.5, 0.6),
        dist2=ParetoShifted.from_mean(4.0, 0.3),
    )


@pytest.fixture(scope="session")
def ref_catalog(ref_params):
    return tail_catalog(ref_params)


@pytest.fixture(scope="session")
def alt_catalog(alt_params):
    return tail_catalog(alt_params)


@pytest.fixture(scope="session")
def tail_pmfs(ref_params):
    """Deep inversion pmfs for tail fits (j up to 2000)."""
    return conditional_pmfs(ref_params, 2000, radius=0.995)


@pytest.fixture(scope="session")
def alt_tail_pmfs(alt_params):
    return conditional_pmfs(alt_params, 1100, radius=0.995)


@pytest.fixture(scope="session")
def bulk_pmfs(ref_params):
    """Shallow, high-accuracy pmfs for bulk (first 50 states) comparisons."""
    return conditional_pmfs(ref_params, 60, radius=0.8)


@pytest.fixture(scope="session")
def big_sim(ref_params):
    return simulate(ref_params, SimConfig(max_events=10_000_000, seed=2024))


@pytest.fixture(scope="session")
def sampler(ref_params):
    return DecompositionSampler(ref_params, seed=77)


@pytest.fixture(scope="session")
def million_draws(sampler):
    """1e6 draws of the three stationary targets, split into the five laws."""
    r0 = sampler.sample("r0", 1_000_000)
    q1, o1 = sampler.sample("r1", 1_000_000)
    q2, o2 = sampler.sample("r2", 1_000_000)
    return {"R0": r0, "R11": q1, "R12": o1, "R21": q2, "R22": o2}


@pytest.fixture
def forks_recorded(monkeypatch, tmp_path_factory):
    """A callable giving the forks made from now on, by this process or by a
    process it forks, as (parent pid, child pid) pairs in the order logged.

    Each fork is logged to a file by its parent, so a child's own forks are
    seen too; a child is reaped before `fork_run` returns, so the log is
    whole by then."""
    log = tmp_path_factory.mktemp("forks") / "log"
    log.touch()
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {pid}\n")
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
