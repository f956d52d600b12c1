"""Exact stochastic representations of the conditional-distribution factors.

Every factor of the stationary generating functions has a constructive
probabilistic form: the high-priority busy period is a branching tree of
services, the batch size X_g is one customer or the low-priority arrivals
over a busy period, Ka/Kb/Kc are mixtures, batched Poisson sums and
geometric compounds of those pieces, the idle-orbit count is a thinned
compound Poisson sum of K draws, and the difference-quotient factors H mark
a uniform point inside a length-biased service.  Sampling these and
comparing against the analytic generating functions is the strongest
correctness check in the package, so the samplers here are exact in
distribution: no tables, no truncation, and no call into the analytic
evaluators.

All samplers are vectorised; a million draws of any target is seconds, not
minutes.
"""

from __future__ import annotations

import numpy as np

from .errors import RecursionDepthExceeded
from .model import ModelParams, ServiceDist

__all__ = ["make_rng", "DecompositionSampler", "PAIR_TARGETS", "SCALAR_TARGETS"]

SCALAR_TARGETS = ("xg", "ka", "kb", "kc", "k", "r0")
PAIR_TARGETS = ("h1", "h2", "m1", "m2", "s1", "s2", "r1", "r2")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); streams never overlap."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def _group_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of `values`; run i has length counts[i]."""
    owner = np.repeat(np.arange(counts.size), counts)
    return np.bincount(owner, weights=values, minlength=counts.size)


class DecompositionSampler:
    """Draws from the factor laws of a fixed parameter set.

    The sampler holds no state beyond its random stream, so building one is
    free; draws depend only on (params, seed, stream) and the call order.
    """

    def __init__(self, params: ModelParams, seed: int = 0, stream: int = 0):
        self.params = params
        self.rng = make_rng(seed, stream)

    # ------------------------------------------------------------------
    # primitives

    def busy_durations(
        self, n: int, max_nodes: int | None = None, root: ServiceDist | None = None
    ) -> np.ndarray:
        """Lengths of n independent high-priority busy periods.

        Each period is the total service time of a branching tree: the root
        customer's service (drawn from `root`, by default the type-1 law),
        plus one subtree per priority arrival during any service in the tree.
        By default the trees may hold 30 times their mean total of services,
        and at least a million; a tree has 1 + lam1 E[root] / (1 - rho1)
        services on average, a mean taken as 1 when E[root] is infinite.
        """
        p = self.params
        rng = self.rng
        root = p.dist1 if root is None else root
        if max_nodes is None:
            per_tree = 1.0 + p.lambda1 * root.mean / (1.0 - p.rho1)
            if not np.isfinite(per_tree):
                per_tree = 1.0
            max_nodes = max(1_000_000, int(30 * n * per_tree))
        svc = root.sample(rng, n)
        total = svc.copy()
        owner = np.arange(n)
        used = n
        while owner.size:
            kids = rng.poisson(p.lambda1 * svc)
            used += int(kids.sum())
            if used > max_nodes:
                raise RecursionDepthExceeded(
                    f"busy-period trees exceeded {max_nodes} services"
                )
            owner = np.repeat(owner, kids)
            if owner.size == 0:
                break
            svc = p.dist1.sample(rng, owner.size)
            total += np.bincount(owner, weights=svc, minlength=n)
        return total

    def sample_xg(self, n: int) -> np.ndarray:
        """Orbit input of one effective arrival: itself (low priority) or
        the low-priority arrivals over one busy period (high priority)."""
        p = self.params
        out = np.ones(n, dtype=np.int64)
        hi = self.rng.random(n) < p.q
        m = int(hi.sum())
        if m:
            out[hi] = self.rng.poisson(p.lambda2 * self.busy_durations(m))
        return out

    def _sum_xg(self, counts: np.ndarray) -> np.ndarray:
        """Independent sums of X_g, one sum per entry of `counts`."""
        total = int(counts.sum())
        if total == 0:
            return np.zeros(counts.size, dtype=np.int64)
        return _group_sums(counts, self.sample_xg(total)).astype(np.int64)

    # ------------------------------------------------------------------
    # the orbit factors

    def sample_ka(self, n: int) -> np.ndarray:
        """Zero with probability 1 - rho1, else the low-priority arrivals
        over an equilibrium busy period: a Geometric(1 - rho1) >= 1 number
        of busy periods, each started by an equilibrium type-1 service."""
        p = self.params
        out = np.zeros(n, dtype=np.int64)
        on = np.flatnonzero(self.rng.random(n) < p.rho1)
        if on.size:
            stages = self.rng.geometric(1.0 - p.rho1, on.size)
            busy = self.busy_durations(int(stages.sum()), root=p.dist1_eq)
            out[on] = self.rng.poisson(p.lambda2 * _group_sums(stages, busy))
        return out

    def sample_kb(self, n: int) -> np.ndarray:
        """Batched Poisson: effective arrivals over an equilibrium-biased
        service of the merged stream, each contributing an X_g."""
        p = self.params
        t = p.mixed_service_eq.sample(self.rng, n)
        return self._sum_xg(self.rng.poisson(p.lam * t))

    def _xc(self, n: int) -> np.ndarray:
        # one geometric-stage increment: a Ka plus the orbit input of the
        # arrivals over an equilibrium low-priority service
        p = self.params
        t = p.dist2_eq.sample(self.rng, n)
        return self.sample_ka(n) + self._sum_xg(self.rng.poisson(p.lam * t))

    def sample_kc(self, n: int) -> np.ndarray:
        stages = self.rng.geometric(1.0 - self.params.vartheta, n) - 1
        total = int(stages.sum())
        if total == 0:
            return np.zeros(n, dtype=np.int64)
        return _group_sums(stages, self._xc(total)).astype(np.int64)

    def sample_k(self, n: int) -> np.ndarray:
        return self.sample_ka(n) + self.sample_kb(n) + self.sample_kc(n)

    def sample_r0(self, n: int) -> np.ndarray:
        """Orbit size given an idle server, exp(-psi int_z^1 K): Poisson(psi)
        candidate K draws, each kept with probability 1/(K+1) and then
        contributing K+1 (a thinned Poisson process)."""
        counts = self.rng.poisson(self.params.psi, n)
        cand = self.sample_k(int(counts.sum()))
        keep = self.rng.random(cand.size) * (cand + 1.0) < 1.0
        return _group_sums(counts, np.where(keep, cand + 1, 0)).astype(np.int64)

    # ------------------------------------------------------------------
    # bivariate (queue, orbit) factors

    def sample_split(self, counts: np.ndarray, c: float):
        """Independently mark each of `counts` items with probability c."""
        first = self.rng.binomial(counts, c)
        return first.astype(np.int64), (counts - first).astype(np.int64)

    def sample_h_pair(self, which: int, n: int):
        """One step of the difference-quotient factor H for type `which`.

        Mark a uniform point V inside a length-biased type-`which` service
        T*: the arrivals before V go to queue/orbit by type, the arrivals
        after V contribute whole X_g batches to the orbit.
        """
        p = self.params
        dist = p.dist1 if which == 1 else p.dist2
        t = dist.sample_length_biased(self.rng, n)
        v = t * self.rng.random(n)
        n1 = self.rng.poisson(p.lambda1 * v)
        n2 = self.rng.poisson(p.lambda2 * v) + self._sum_xg(self.rng.poisson(p.lam * (t - v)))
        return n1, n2

    def sample_s_pair(self, which: int, n: int):
        """Arrivals during an equilibrium type-`which` service, by type."""
        p = self.params
        dist = p.dist1_eq if which == 1 else p.dist2_eq
        k = self.rng.poisson(p.lam * dist.sample(self.rng, n))
        return self.sample_split(k, p.q)

    def sample_m1_pair(self, n: int):
        """Geometric compound of H factors for the high-priority class."""
        stages = self.rng.geometric(1.0 - self.params.rho1, n) - 1
        total = int(stages.sum())
        q_out = np.zeros(n, dtype=np.int64)
        o_out = np.zeros(n, dtype=np.int64)
        if total:
            h1, h2 = self.sample_h_pair(1, total)
            q_out += _group_sums(stages, h1).astype(np.int64)
            o_out += _group_sums(stages, h2).astype(np.int64)
        return q_out, o_out

    def sample_m2_pair(self, n: int):
        """With probability vartheta an H factor for the low-priority class
        plus an extra Ka and Kc in the orbit; otherwise nothing."""
        vt = self.params.vartheta
        on = self.rng.random(n) < vt
        m = int(on.sum())
        q_out = np.zeros(n, dtype=np.int64)
        o_out = np.zeros(n, dtype=np.int64)
        if m:
            h1, h2 = self.sample_h_pair(2, m)
            q_out[on] = h1
            o_out[on] = h2 + self.sample_ka(m) + self.sample_kc(m)
        return q_out, o_out

    def sample_r1_pair(self, n: int):
        """(queue, orbit) given a high-priority service in progress."""
        q1, o1 = self.sample_m2_pair(n)
        q2, o2 = self.sample_m1_pair(n)
        q3, o3 = self.sample_s_pair(1, n)
        return q1 + q2 + q3, o1 + o2 + o3 + self.sample_r0(n)

    def sample_r2_pair(self, n: int):
        """(queue, orbit) given a low-priority service in progress."""
        q1, o1 = self.sample_s_pair(2, n)
        o1 = o1 + self.sample_ka(n) + self.sample_kc(n) + self.sample_r0(n)
        return q1, o1

    # ------------------------------------------------------------------
    # dispatch

    def sample(self, target: str, n: int):
        """Draw n values of a named factor; pair targets return a tuple."""
        target = target.lower()
        if target in SCALAR_TARGETS:
            return getattr(self, f"sample_{target}")(n)
        pairs = {
            "h1": lambda: self.sample_h_pair(1, n),
            "h2": lambda: self.sample_h_pair(2, n),
            "s1": lambda: self.sample_s_pair(1, n),
            "s2": lambda: self.sample_s_pair(2, n),
            "m1": lambda: self.sample_m1_pair(n),
            "m2": lambda: self.sample_m2_pair(n),
            "r1": lambda: self.sample_r1_pair(n),
            "r2": lambda: self.sample_r2_pair(n),
        }
        if target in pairs:
            return pairs[target]()
        raise ValueError(
            f"unknown target {target!r}; choose from "
            f"{', '.join(SCALAR_TARGETS + PAIR_TARGETS)}"
        )
