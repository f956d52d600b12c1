"""Discrete-event simulation of the two-class priority retrial queue.

An independent check on everything analytic: the event loop knows nothing
about transforms, only the dynamics.  High-priority arrivals queue behind
the server, low-priority arrivals join a retrial orbit and re-attempt at
rate mu each; an attempt succeeds only if it finds the server idle.  All
clocks are exponential except the service draws, so two pending events
suffice: the next arrival and the server's next event, a completion while
it is busy and an effective retrial while it is idle, redrawn memorylessly
whenever the state changes.

Every draw comes from numpy.  A run is two replicas that split the event
budget, the first taking the odd event, so one event leaves the second
none.  `simulate` runs replica 0 in the caller and replica 1 in a forked
child through `parallel.fork_run` (the loop holds the GIL), and pools them.
Replica r's inter-arrival times, class picks, retrial clocks and each
class's service times have streams of their own, clocks 0 to 4 of the
`parallel.make_rng` key layout; services are drawn by the laws' own
`ServiceDist.sample`.

Statistics are time averages over the whole run, with sparse joint
histograms of (queue, orbit) per server state, keyed nq << 32 | no.  A
conditional law is asked for by its name, R0 to R22, which `TARGET_STATES`
maps to its server state and its coordinate's shift in that key.  The run
starts empty and idle, and each completion that leaves the system empty
returns it there: a regeneration point, where the cycle's time per server
state is marked.  The completed cycles are i.i.d., so the error bars are
the regenerative ratio estimator's CLT intervals (Crane & Iglehart 1975;
Asmussen & Glynn, Stochastic Simulation, 2007, ch. IV), with no warm-up and
no batches.  The replicas pool their times, histograms, arrival counts and
cycles; each one's trailing partial cycle counts in the averages, not in
the error bars.  With two long replicas the bias of pooling,
O(2 / events), stays far below the error bars (Glynn & Heidelberger, ACM
TOMACS 1, 1991).
"""

from __future__ import annotations

import functools
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
_STATE_NAMES = ("idle", "busy1", "busy2")
# each conditional law as the server state it is observed in and the shift
# of its coordinate in the histogram key nq << 32 | no: 32 for the queue, 0
# for the orbit
TARGET_STATES = {
    "R0": (IDLE, 0),
    "R11": (BUSY1, 32),
    "R12": (BUSY1, 0),
    "R21": (BUSY2, 32),
    "R22": (BUSY2, 0),
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
    hist: list                         # per state: dict nq << 32 | no -> time
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
        total = self.cycles.sum()
        r = self.cycles.sum(axis=0) / total
        ss = g.diagonal() - 2 * r * g.sum(axis=0) + r * r * g.sum()  # sum (Y_i - r tau_i)^2
        return np.sqrt(ss * n / (n - 1)) / total

    def pasta_fractions(self) -> np.ndarray:
        # the first event is an arrival, so the sum is at least 1
        return self.arrivals_seen / self.arrivals_seen.sum()

    def conditional_pmf(self, law: str) -> np.ndarray:
        """Time-average pmf of a law of `TARGET_STATES`, the queue or the
        orbit given the server state.

        Raises InsufficientData when the conditioning state holds less than
        1% of the observed time, and KeyError for a name not in `TARGET_STATES`.
        """
        s, shift = TARGET_STATES[law]
        occupancy = self.time_in_state[s] / self.collected_time
        if occupancy < 0.01:
            raise InsufficientData(
                f"state {_STATE_NAMES[s]!r} observed {occupancy:.2%} of the time")
        h = self.hist[s]
        coord = np.fromiter(h, np.int64, len(h)) >> shift & 0xFFFFFFFF
        # the times in dict order, as a loop adding them one by one would
        return np.bincount(coord, np.fromiter(h.values(), float, len(h))) / self.time_in_state[s]

    def joint_pmf(self, state: int) -> dict:
        """{(queue, orbit): time fraction} given server state IDLE, BUSY1 or BUSY2."""
        tot = self.time_in_state[state]
        return {(k >> 32, k & 0xFFFFFFFF): w / tot for k, w in self.hist[state].items()}


def _draws(seed: int, key: tuple, draw):
    """Callable returning the next float of draw(rng, _BLOCK), one at a time,
    where rng is `parallel.make_rng(seed, *key)`."""
    rng = parallel.make_rng(seed, *key)
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
    t_server = inf  # busy: completion; idle: retrial, or inf with the orbit empty

    c0 = c1 = c2 = 0.0  # time per server state in the current cycle
    h0, h1, h2 = {}, {}, {}  # keyed nq << 32 | no, which is no while idle
    seen = [0, 0, 0]  # arrivals that found each server state
    marks = array("d")  # (c0, c1, c2) of each completed cycle, end to end
    mark = marks.extend
    for _ in range(events):
        if t_server < t_arrival:
            arrival = False
            dt = t_server - t
            t = t_server
        else:  # a tie goes to the arrival
            arrival = True
            dt = t_arrival - t
            t = t_arrival
        key = nq << 32 | no  # the state this event ends
        if server == IDLE:
            c0 += dt
            h0[key] = h0.get(key, 0.0) + dt
        elif server == BUSY1:
            c1 += dt
            h1[key] = h1.get(key, 0.0) + dt
        else:
            c2 += dt
            h2[key] = h2.get(key, 0.0) + dt
        if arrival:
            seen[server] += 1
            if server == IDLE:  # into service, a retrial pending or not
                if uniform() < q:
                    server = BUSY1
                    t_server = t + service1()
                else:
                    server = BUSY2
                    t_server = t + service2()
            elif uniform() < q:
                nq += 1
            else:
                no += 1
            t_arrival = t + gap()
        elif server == IDLE:  # successful retrial
            no -= 1
            server = BUSY2
            t_server = t + service2()
        elif nq:  # completion, the queue's head next
            nq -= 1
            server = BUSY1
            t_server = t + service1()
        else:  # completion, to an idle server
            server = IDLE
            if no:
                t_server = t + unit_exp() / (no * mu)
            else:  # empty and idle, as at t = 0: a regeneration point
                t_server = inf
                mark((c0, c1, c2))
                c0 = c1 = c2 = 0.0
    return t, (c0, c1, c2), np.frombuffer(marks).reshape(-1, 3), (h0, h1, h2), seen


def simulate(params: ModelParams, config: SimConfig) -> SimResult:
    """Run the two replicas, the second in a forked child, and pool them;
    deterministic for a fixed (params, config)."""
    share, extra = divmod(config.max_events, 2)
    ends, partials, cycles, hists, seen = zip(*parallel.fork_run(
        functools.partial(_replica, (params, config.seed, 0, share + extra)),
        functools.partial(_replica, (params, config.seed, 1, share))))
    cycles = np.concatenate(cycles)
    hist = [{}, {}, {}]
    for h in hists:
        for pooled, part in zip(hist, h):
            for key, w in part.items():
                pooled[key] = pooled.get(key, 0.0) + w
    return SimResult(
        events=config.max_events,
        collected_time=sum(ends),
        time_in_state=cycles.sum(axis=0) + np.sum(partials, axis=0),
        cycles=cycles,
        hist=hist,
        arrivals_seen=np.sum(seen, axis=0, dtype=np.int64),
    )
