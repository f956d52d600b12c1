"""Discrete-event simulation of the two-class priority retrial queue.

An independent check on everything analytic: the event loop knows nothing
about transforms, only the dynamics.  High-priority arrivals queue behind
the server, low-priority arrivals join a retrial orbit and re-attempt at
rate mu each; an attempt succeeds only if it finds the server idle.  All
clocks are exponential except the service draws, so the three pending
events (arrival, service completion, effective retrial) can be redrawn
memorylessly whenever the state changes.

Every draw comes from numpy: inter-arrival times, class picks, retrial
clocks and each class's service times have a PCG64 stream of their own,
spawn keys (1, 0) to (1, 4) of the seed, and services are drawn by the
laws' own `ServiceDist.sample`.  The decomposition sampler's streams have
one-element spawn keys, (0,) by default, so for one seed the two pillars
share no random bits.

Statistics are time averages over the whole run, with sparse joint
histograms of (queue, orbit) per server state.  The run starts empty and
idle, and each completion that leaves the system empty returns it there: a
regeneration point, where the cycle's time per server state is marked.  The
completed cycles are i.i.d., so the error bars are the regenerative ratio
estimator's CLT intervals (Crane & Iglehart 1975; Asmussen & Glynn,
Stochastic Simulation, 2007, ch. IV), with no warm-up and no batches.  The
trailing partial cycle counts in the averages, not in the error bars.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, InsufficientData
from .model import ModelParams

__all__ = ["SimConfig", "SimResult", "simulate", "IDLE", "BUSY1", "BUSY2", "TARGET_STATES"]

IDLE, BUSY1, BUSY2 = 0, 1, 2
_BLOCK = 4096  # draws fetched from numpy at a time
_STATE_NAMES = {"idle": IDLE, "busy1": BUSY1, "busy2": BUSY2}
# each conditional law as the (server state, coordinate) it is observed in
TARGET_STATES = {
    "R0": ("idle", "orbit"),
    "R11": ("busy1", "queue"),
    "R12": ("busy1", "orbit"),
    "R21": ("busy2", "queue"),
    "R22": ("busy2", "orbit"),
}


@dataclass(frozen=True)
class SimConfig:
    max_events: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.max_events < 1:
            raise BadParam(f"max_events must be at least 1, got {self.max_events}")


@dataclass
class SimResult:
    events: int
    collected_time: float
    time_in_state: np.ndarray          # (3,) time observed in each server state
    cycles: np.ndarray                 # (n, 3) per completed cycle: time in each state
    hist: list                         # per state: dict (queue, orbit) -> time
    arrivals_seen: np.ndarray          # (3,) server state found by arrivals

    def state_fractions(self) -> np.ndarray:
        return self.time_in_state / self.collected_time

    def state_fraction_stderr(self) -> np.ndarray:
        """Regenerative ratio CLT: with Y_i the per-state times and tau_i the
        length of cycle i, and r = sum Y / sum tau, sqrt(sum (Y_i - r tau_i)^2
        / (n - 1)) / (mean tau sqrt(n)).  InsufficientData below 2 cycles."""
        n = len(self.cycles)
        if n < 2:
            raise InsufficientData(f"{n} completed regeneration cycles; error bars need 2")
        g = self.cycles.T @ self.cycles  # 3x3 sums of Y_is Y_it: no (n, 3) temporary
        r = self.cycles.sum(axis=0) / self.cycles.sum()
        ss = g.diagonal() - 2 * r * g.sum(axis=0) + r * r * g.sum()  # sum (Y_i - r tau_i)^2
        return np.sqrt(ss * n / (n - 1)) / self.cycles.sum()

    def pasta_fractions(self) -> np.ndarray:
        # the first event is an arrival, so the sum is at least 1
        return self.arrivals_seen / self.arrivals_seen.sum()

    def _state_index(self, state) -> int:
        if isinstance(state, str):
            try:
                return _STATE_NAMES[state]
            except KeyError:
                raise ValueError(f"unknown state {state!r}") from None
        return int(state)

    def conditional_pmf(self, state, coord: str) -> np.ndarray:
        """Time-average pmf of 'queue' or 'orbit' given the server state.

        Raises InsufficientData when the conditioning state holds less than
        1% of the observed time.
        """
        s = self._state_index(state)
        occupancy = self.time_in_state[s] / self.collected_time
        if occupancy < 0.01:
            raise InsufficientData(f"state {state!r} observed {occupancy:.2%} of the time")
        pos = 0 if coord == "queue" else 1
        if coord not in ("queue", "orbit"):
            raise ValueError("coord must be 'queue' or 'orbit'")
        top = max(k[pos] for k in self.hist[s])
        out = np.zeros(top + 1)
        for key, w in self.hist[s].items():
            out[key[pos]] += w
        return out / self.time_in_state[s]

    def joint_pmf(self, state) -> dict:
        s = self._state_index(state)
        tot = self.time_in_state[s]
        return {k: w / tot for k, w in self.hist[s].items()}


def _draws(seed: int, stream: int, draw):
    """Callable returning the next float of draw(rng, _BLOCK), one at a time,
    where rng is the simulator's numpy stream `stream` of `seed`."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1, stream)))
    )
    blocks = (draw(rng, _BLOCK).tolist() for _ in itertools.repeat(None))
    return itertools.chain.from_iterable(blocks).__next__


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Run the event loop; deterministic for a fixed (params, config)."""
    lam, q, mu = params.lam, params.q, params.mu
    seed = config.seed
    gap = _draws(seed, 0, lambda rng, k: rng.exponential(1.0 / lam, k))
    uniform = _draws(seed, 1, lambda rng, k: rng.random(k))
    unit_exp = _draws(seed, 2, lambda rng, k: rng.standard_exponential(k))
    service1 = _draws(seed, 3, params.dist1.sample)
    service2 = _draws(seed, 4, params.dist2.sample)
    inf = math.inf

    t = 0.0
    server = IDLE
    nq = 0          # high-priority customers waiting (not in service)
    no = 0          # orbit size
    t_arrival = gap()
    t_done = inf
    t_retry = inf

    in_cycle = [0.0, 0.0, 0.0]  # time per server state in the current cycle
    hist = [{}, {}, {}]
    arrivals_seen = [0, 0, 0]
    marks = array("d")  # in_cycle of each completed cycle, end to end
    mark = marks.fromlist
    for _ in range(config.max_events):
        if t_done < t_arrival:
            t_next, kind = t_done, 1
        elif t_retry < t_arrival:
            t_next, kind = t_retry, 2
        else:
            t_next, kind = t_arrival, 0
        dt = t_next - t
        in_cycle[server] += dt
        bucket = hist[server]
        key = (nq, no)
        bucket[key] = bucket.get(key, 0.0) + dt
        t = t_next

        if kind == 0:  # arrival
            arrivals_seen[server] += 1
            if uniform() < q:
                if server == IDLE:
                    server = BUSY1
                    t_done = t + service1()
                    t_retry = inf
                else:
                    nq += 1
            else:
                if server == IDLE:
                    server = BUSY2
                    t_done = t + service2()
                    t_retry = inf
                else:
                    no += 1
            t_arrival = t + gap()
        elif kind == 1:  # service completion
            if nq > 0:
                nq -= 1
                server = BUSY1
                t_done = t + service1()
            else:
                server = IDLE
                t_done = inf
                if no > 0:
                    t_retry = t + unit_exp() / (no * mu)
                else:  # empty and idle, as at t = 0: a regeneration point
                    t_retry = inf
                    mark(in_cycle)
                    in_cycle = [0.0, 0.0, 0.0]
        else:  # successful retrial (only scheduled while idle)
            no -= 1
            server = BUSY2
            t_done = t + service2()
            t_retry = inf

    cycles = np.frombuffer(marks).reshape(-1, 3)
    return SimResult(
        events=config.max_events,
        collected_time=t,
        time_in_state=cycles.sum(axis=0) + in_cycle,
        cycles=cycles,
        hist=hist,
        arrivals_seen=np.array(arrivals_seen, dtype=np.int64),
    )
