"""Discrete-event simulation of the two-class priority retrial queue.

An independent check on everything analytic: the event loop knows nothing
about transforms, only the dynamics.  High-priority arrivals queue behind
the server, low-priority arrivals join a retrial orbit and re-attempt at
rate mu each; an attempt succeeds only if it finds the server idle.  All
clocks are exponential except the service draws, so the three pending
events (arrival, service completion, effective retrial) can be redrawn
memorylessly whenever the state changes.

Every draw comes from numpy.  A run is _REPLICAS replicas that split the
event budget, replica 0 in the caller and replica 1 in a forked child
through `parallel.fork_run` (the loop holds the GIL).  Replica r's
inter-arrival times, class picks, retrial clocks and each class's service
times have PCG64 streams of their own, spawn keys (1, r, 0) to (1, r, 4) of
the seed; services are drawn by the laws' own `ServiceDist.sample`.  The
sampler's keys have one or two elements, so for one seed the two pillars
share no random bits.

Statistics are time averages over the whole run, with sparse joint
histograms of (queue, orbit) per server state.  The run starts empty and
idle, and each completion that leaves the system empty returns it there: a
regeneration point, where the cycle's time per server state is marked.  The
completed cycles are i.i.d., so the error bars are the regenerative ratio
estimator's CLT intervals (Crane & Iglehart 1975; Asmussen & Glynn,
Stochastic Simulation, 2007, ch. IV), with no warm-up and no batches.  The
replicas pool their times, histograms, arrival counts and cycles; each
one's trailing partial cycle counts in the averages, not in the error bars.
With few long replicas the bias of pooling, O(replicas / events), stays far
below the error bars (Glynn & Heidelberger, ACM TOMACS 1, 1991).
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import BadParam, InsufficientData
from .model import ModelParams

__all__ = ["SimConfig", "SimResult", "simulate", "IDLE", "BUSY1", "BUSY2", "TARGET_STATES"]

IDLE, BUSY1, BUSY2 = 0, 1, 2
_BLOCK = 4096  # draws fetched from numpy at a time
_REPLICAS = 2  # few long replicas keep the O(replicas / events) pooling bias negligible
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


def _draws(seed: int, key: tuple, draw):
    """Callable returning the next float of draw(rng, _BLOCK), one at a time,
    where rng is the numpy stream of `seed` with spawn key `key`."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )
    blocks = (draw(rng, _BLOCK).tolist() for _ in itertools.repeat(None))
    return itertools.chain.from_iterable(blocks).__next__


def _replica(job):
    """Replica r of a run: `events` events from empty and idle.  Returns its
    end time, time per server state, completed cycles, histograms keyed
    nq << 32 | no, and the server states its arrivals found."""
    params, seed, r, events = job
    lam, q, mu = params.lam, params.q, params.mu
    gap = _draws(seed, (1, r, 0), lambda rng, k: rng.exponential(1.0 / lam, k))
    uniform = _draws(seed, (1, r, 1), lambda rng, k: rng.random(k))
    unit_exp = _draws(seed, (1, r, 2), lambda rng, k: rng.standard_exponential(k))
    service1 = _draws(seed, (1, r, 3), params.dist1.sample)
    service2 = _draws(seed, (1, r, 4), params.dist2.sample)
    inf = math.inf

    t = 0.0
    server = IDLE
    nq = 0          # high-priority customers waiting (not in service)
    no = 0          # orbit size
    t_arrival = gap()
    t_done = inf
    t_retry = inf

    c0 = c1 = c2 = 0.0  # time per server state in the current cycle
    h0, h1, h2 = {}, {}, {}  # keyed nq << 32 | no, which is no while idle
    seen = [0, 0, 0]  # arrivals that found each server state
    marks = array("d")  # (c0, c1, c2) of each completed cycle, end to end
    mark = marks.extend
    for _ in range(events):
        if t_done < t_arrival:  # service completion
            dt = t_done - t
            t = t_done
            key = nq << 32 | no
            if server == BUSY1:
                c1 += dt
                h1[key] = h1.get(key, 0.0) + dt
            else:
                c2 += dt
                h2[key] = h2.get(key, 0.0) + dt
            if nq:
                nq -= 1
                server = BUSY1
                t_done = t + service1()
            else:
                server = IDLE
                t_done = inf
                if no:
                    t_retry = t + unit_exp() / (no * mu)
                else:  # empty and idle, as at t = 0: a regeneration point
                    mark((c0, c1, c2))
                    c0 = c1 = c2 = 0.0
        elif t_retry < t_arrival:  # successful retrial (only scheduled while idle)
            dt = t_retry - t
            t = t_retry
            c0 += dt
            h0[no] = h0.get(no, 0.0) + dt
            no -= 1
            server = BUSY2
            t_done = t + service2()
            t_retry = inf
        else:  # arrival
            dt = t_arrival - t
            t = t_arrival
            seen[server] += 1
            if server == IDLE:
                c0 += dt
                h0[no] = h0.get(no, 0.0) + dt
                if uniform() < q:
                    server = BUSY1
                    t_done = t + service1()
                else:
                    server = BUSY2
                    t_done = t + service2()
                t_retry = inf
            else:
                key = nq << 32 | no
                if server == BUSY1:
                    c1 += dt
                    h1[key] = h1.get(key, 0.0) + dt
                else:
                    c2 += dt
                    h2[key] = h2.get(key, 0.0) + dt
                if uniform() < q:
                    nq += 1
                else:
                    no += 1
            t_arrival = t + gap()
    return t, (c0, c1, c2), np.frombuffer(marks).reshape(-1, 3), (h0, h1, h2), seen


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Run the replicas and pool them; deterministic for a fixed (params,
    config)."""
    replicas = min(_REPLICAS, config.max_events)
    share, extra = divmod(config.max_events, replicas)
    jobs = [(params, config.seed, r, share + (r < extra)) for r in range(replicas)]
    ends, partials, cycles, hists, seen = zip(*parallel.fork_run(_replica, jobs))
    cycles = np.concatenate(cycles)
    hist = []
    for s in range(3):
        pooled = {}
        for h in hists:
            for key, w in h[s].items():
                pooled[key] = pooled.get(key, 0.0) + w
        hist.append({(key >> 32, key & 0xFFFFFFFF): w for key, w in pooled.items()})
    return SimResult(
        events=config.max_events,
        collected_time=sum(ends),
        time_in_state=cycles.sum(axis=0) + np.sum(partials, axis=0),
        cycles=cycles,
        hist=hist,
        arrivals_seen=np.sum(seen, axis=0, dtype=np.int64),
    )
