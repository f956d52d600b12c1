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

Statistics are time averages over the last 80% of the events, split into
20 batches for crude confidence intervals, with sparse joint histograms
of (queue, orbit) held per server state.  One loop body runs segment by
segment: a warm-up segment whose accumulators are thrown away, then one
segment per batch, ending at the exact event counts that split the rest
into 20 near-equal batches.  Within a segment the time per server state
and the server states that arrivals find add up in 3-element lists, and
each time step adds to the (queue, orbit) dict of its server state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, InsufficientData
from .model import ModelParams

__all__ = ["SimConfig", "SimResult", "simulate", "IDLE", "BUSY1", "BUSY2", "TARGET_STATES"]

IDLE, BUSY1, BUSY2 = 0, 1, 2
_WARMUP_FRACTION = 0.2  # share of the events run before statistics start
_BATCHES = 20
_MIN_EVENTS = 24  # fewest events that give each batch one after warm-up
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
        if self.max_events < _MIN_EVENTS:
            raise BadParam(
                f"max_events must be at least {_MIN_EVENTS} so that each of the "
                f"{_BATCHES} batches gets an event, got {self.max_events}"
            )


@dataclass
class SimResult:
    events: int
    collected_time: float
    time_in_state: np.ndarray          # (3,) time observed in each server state
    batch_time: np.ndarray             # (_BATCHES, 3)
    hist: list                         # per state: dict (queue, orbit) -> time
    arrivals_seen: np.ndarray          # (3,) server state found by arrivals
    arrivals: int

    def state_fractions(self) -> np.ndarray:
        return self.time_in_state / self.collected_time

    def state_fraction_stderr(self) -> np.ndarray:
        frac = self.batch_time / self.batch_time.sum(axis=1, keepdims=True)
        return frac.std(axis=0, ddof=1) / math.sqrt(frac.shape[0])

    def pasta_fractions(self) -> np.ndarray:
        return self.arrivals_seen / self.arrivals

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
            raise InsufficientData(
                f"state {state!r} observed {occupancy:.2%} of the time"
            )
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


def _segment_ends(max_events: int) -> list:
    """Event counts at which the warm-up and each batch end: event
    warmup + j (j = 0..span-1) belongs to batch j * _BATCHES // span, so
    batch b starts at warmup + ceil(b * span / _BATCHES)."""
    warmup = int(_WARMUP_FRACTION * max_events)
    span = max_events - warmup
    return [warmup - (-b * span // _BATCHES) for b in range(_BATCHES + 1)]


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

    time_in_state = [0.0, 0.0, 0.0]
    hist = [{}, {}, {}]
    arrivals_seen = [0, 0, 0]
    batch_time = []
    # the warm-up segment accumulates into throwaway lists
    tis, hists, seen = [0.0, 0.0, 0.0], [{}, {}, {}], [0, 0, 0]
    t_collect_start = 0.0
    events = 0
    for segment, end in enumerate(_segment_ends(config.max_events)):
        bt = [0.0, 0.0, 0.0]
        for _ in range(end - events):
            if t_done < t_arrival:
                t_next, kind = t_done, 1
            elif t_retry < t_arrival:
                t_next, kind = t_retry, 2
            else:
                t_next, kind = t_arrival, 0
            dt = t_next - t
            tis[server] += dt
            bt[server] += dt
            bucket = hists[server]
            key = (nq, no)
            bucket[key] = bucket.get(key, 0.0) + dt
            t = t_next

            if kind == 0:  # arrival
                seen[server] += 1
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
                    t_retry = t + unit_exp() / (no * mu) if no > 0 else inf
            else:  # successful retrial (only scheduled while idle)
                no -= 1
                server = BUSY2
                t_done = t + service2()
                t_retry = inf
        if segment == 0:  # warm-up over: collect from here on
            t_collect_start = t
            tis, hists, seen = time_in_state, hist, arrivals_seen
        else:
            batch_time.append(bt)
        events = end

    return SimResult(
        events=events,
        collected_time=t - t_collect_start,
        time_in_state=np.array(time_in_state),
        batch_time=np.array(batch_time),
        hist=hist,
        arrivals_seen=np.array(arrivals_seen, dtype=np.int64),
        arrivals=max(sum(arrivals_seen), 1),
    )
